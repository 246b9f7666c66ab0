"""Sweep answers encoded by the compiled formatter, byte for byte.

The service writes its distance rows, isochrone vertex lists and
matrices as JSON text in C (:func:`repro.server.protocol.int_array`)
and splices that text into the frame.  Every message must encode to
the bytes ``json.dumps`` gives for the same payload with lists, with
the kernel and on the ``tolist`` fallback, and over the wire.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PhastEngine
from repro.graph.csr import INF
from repro.server import PhastService, ServerConfig, serve_in_thread
from repro.server import protocol
from repro.utils import native

I64 = np.iinfo(np.int64)
RECORD = protocol.RECORD

needs_native = pytest.mark.skipif(
    not native.native_available(), reason="no compiled kernels here"
)

BACKENDS = [pytest.param("kernel", marks=needs_native), "fallback"]


def _use(mp: pytest.MonkeyPatch, backend: str) -> None:
    if backend == "fallback":
        mp.setattr(native, "_lib", False)


@st.composite
def int_arrays(draw):
    """1-D and 2-D integer arrays, empty, 0 x k, k x 0 and k x 1
    included, with negatives, ``INF`` and the int64 extremes."""
    shape = draw(st.one_of(
        st.tuples(st.integers(0, 40)),
        st.tuples(st.integers(0, 6), st.integers(0, 6)),
        st.tuples(st.integers(0, 6), st.just(1)),
    ))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    info = np.iinfo(dtype)
    special = [v for v in (int(INF), I64.min, I64.max, 0, -1, 10, -10)
               if info.min <= v <= info.max]
    values = st.sampled_from(special) | st.integers(int(info.min),
                                                    int(info.max))
    size = int(np.prod(shape))
    flat = draw(st.lists(values, min_size=size, max_size=size))
    return np.array(flat, dtype=dtype).reshape(shape)


scalars = st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(
    max_size=5)


@st.composite
def payloads(draw):
    """``(fields, values)``: a response's fields in order, each an
    array or a plain JSON value."""
    items = draw(st.lists(int_arrays() | scalars, max_size=5))
    return [(f"k{i}", v) for i, v in enumerate(items)]


@pytest.mark.parametrize("backend", BACKENDS)
@given(req_id=scalars, fields=payloads())
@settings(max_examples=150, deadline=None)
def test_encode_message_equals_json_dumps(backend, req_id, fields):
    arrays = [key for key, v in fields if isinstance(v, np.ndarray)]
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        encoded = {key: protocol.int_array(v) if key in arrays else v
                   for key, v in fields}
        got = protocol.encode_message(protocol.ok_response(req_id, **encoded))
    listed = {key: v.tolist() if key in arrays else v for key, v in fields}
    assert got == protocol.encode_message(
        protocol.ok_response(req_id, **listed))
    # Each backend really ran: arrays come back as lists only without
    # the kernel.
    assert all(isinstance(encoded[key], list) == (backend == "fallback")
               for key in arrays)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (4, 1), (1, 4)])
@pytest.mark.parametrize("backend", BACKENDS)
def test_int_array_edge_shapes(backend, shape):
    arr = np.full(shape, I64.min, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        got = protocol.encode_message({"a": protocol.int_array(arr)})
    assert got == protocol.encode_message({"a": arr.tolist()})


@needs_native
def test_format_ints_text_outlives_its_buffer():
    """The formatter writes into one reused buffer per thread, grown on
    demand: the bytes of each call stand alone, whatever the same or
    another thread formats after."""
    rows = [np.arange(n, dtype=np.int64) * -7919 for n in (3, 5000, 1, 600)]
    want = [json.dumps(r.tolist(), separators=(",", ":")).encode()
            for r in rows]
    got = [native.format_ints(r) for r in rows]
    results = {}

    def work(i):
        results[i] = [native.format_ints(r) for r in rows[::-1] * 20]

    workers = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
    assert got == want
    assert all(results[i] == want[::-1] * 20 for i in range(3))


# ---------------------------------------------------------------------------
# A sweep batch's answer frames


#: Isochrone budgets at the edges: none, up to INF, and past int64.
BUDGETS = [0, int(INF) - 1, int(INF), 2**63, 10**30]

ids = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
       | st.floats() | st.text(max_size=6)
       | st.sampled_from(['"', "\\", "\n\t", "é", "\u2028", "\U0001f600"]))


SWEEP_CODES = {"tree": 0, "one_to_many": 1, "isochrone": 2}


def _parse(requests: list, prefix: bytes = b"") -> tuple:
    """``(records, data, targets)``: ``requests`` of ``(op, arg,
    req_id)`` as one intake parse would record them, their ids' text
    after ``prefix`` in ``data``."""
    records, data, targets = array("q"), bytearray(prefix), array("q")
    for op, arg, req_id in requests:
        text = protocol.id_text(req_id)
        a = b = 0
        if op == "one_to_many":
            a = len(targets)
            targets.extend(arg)
            b = len(targets)
        elif op == "isochrone":
            a = min(arg, int(I64.max))
        records.extend((0, 0, SWEEP_CODES[op], len(data),
                        len(data) + len(text), 0, a, b, 0))
        data += text
    return records, bytes(data), targets or None


@st.composite
def sweep_batches(draw):
    """``(rows, segments, answers)``: 1-16 requests recorded by one or
    two intake parses, cut into segments taken in any order, each
    answered from a run of rows that fits (runs may overlap), over
    rows that hold 0, INF and values between; ``answers`` are
    ``(lane, op, arg, req_id)`` in frame order."""
    lanes = draw(st.integers(1, 16))
    n = draw(st.integers(1, 30))
    values = st.sampled_from([0, 1, int(INF) - 1, int(INF)]) | st.integers(
        0, int(INF))
    flat = draw(st.lists(values, min_size=lanes * n, max_size=lanes * n))
    rows = np.array(flat, dtype=np.int64).reshape(lanes, n)
    requests = []
    for _ in range(draw(st.integers(1, 16))):
        op = draw(st.sampled_from(["tree", "one_to_many", "isochrone"]))
        if op == "one_to_many":
            arg = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=8))
            arg += arg[:draw(st.integers(0, len(arg)))]  # repeats
        elif op == "isochrone":
            arg = draw(st.sampled_from(BUDGETS) | st.integers(0, int(INF)))
        else:
            arg = None
        requests.append((op, arg, draw(ids)))
    split = draw(st.integers(0, len(requests)))
    parses = [(_parse(requests[:split], b"xy"), requests[:split]),
              (_parse(requests[split:]), requests[split:])]
    runs = []
    for (records, data, targets), reqs in parses:
        lo = 0
        while lo < len(reqs):
            hi = draw(st.integers(lo + 1, min(len(reqs), lo + lanes)))
            lane = draw(st.integers(0, lanes - (hi - lo)))
            runs.append(((records, data, targets, lo, hi, lane),
                         [(lane + i, *reqs[lo + i]) for i in range(hi - lo)]))
            lo = hi
    runs = draw(st.permutations(runs))
    return (rows, [segment for segment, _ in runs],
            [answer for _, answers in runs for answer in answers])


def _payload(row: list[int], op: str, arg) -> dict:
    """A sweep answer's payload, with Python lists and ints only."""
    if op == "tree":
        return {"dist": row}
    if op == "one_to_many":
        return {"dist": [row[t] for t in arg]}
    vertices = [v for v, d in enumerate(row) if d <= arg]
    return {"vertices": vertices, "count": len(vertices)}


@pytest.mark.parametrize("backend", BACKENDS)
@given(batch=sweep_batches())
@settings(max_examples=200, deadline=None)
def test_sweep_frames_equal_encode_message(backend, batch):
    """One call writes a batch's frames from the intake's records: on
    both backends, the bytes encode_message gives each answer's
    payload with lists, and each segment's frames end where its last
    answer's do."""
    rows, segments, answers = batch
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        frames, ends = protocol.sweep_frames(rows, segments)
    want = [protocol.encode_message(protocol.ok_response(
        req_id, **_payload(rows[lane].tolist(), op, arg)))
        for lane, op, arg, req_id in answers]
    assert bytes(frames) == b"".join(want)
    cuts = np.cumsum([hi - lo for _, _, _, lo, hi, _ in segments]) - 1
    assert ends == np.cumsum([len(w) for w in want])[cuts].tolist()


@needs_native
@pytest.mark.parametrize("answer", [
    (2, "tree", None),
    (-1, "tree", None),
    (0, "one_to_many", [0, 5]),
    (0, "one_to_many", [-1]),
    (0, "nearest", None),
])
def test_answer_frames_reject_lanes_and_targets_outside_the_rows(answer):
    """A lane outside the rows, a target outside a row or an unknown
    op fails the whole call, with nothing written."""
    lane, op, arg = answer
    records, data, targets = _parse([("tree", None, 0),
                                     ("one_to_many", arg or [0], 1)])
    if op == "nearest":
        records[RECORD + 2] = 3
    elif op == "tree":
        records[RECORD + 2] = 0
    rows = np.zeros((2, 5), dtype=np.int64)
    with pytest.raises(ValueError):
        native.answer_frames(rows, [(records, data, targets, 0, 1, 0),
                                    (records, data, targets, 1, 2, lane)])


@needs_native
@pytest.mark.parametrize("wrap", [
    lambda frag: [frag],
    lambda frag: {"inner": frag},
    lambda frag: [{"inner": [frag]}],
])
def test_nested_fragment_raises(wrap):
    frag = protocol.int_array(np.arange(3))
    with pytest.raises(TypeError):
        protocol.encode_message({"id": 1, "ok": True, "x": wrap(frag)})


# ---------------------------------------------------------------------------
# Over the wire


@pytest.fixture(scope="module")
def served(road, road_ch):
    service = PhastService(
        road_ch, graph=road,
        config=ServerConfig(batch_max=4, max_wait_ms=5.0, max_pending=64),
    )
    with serve_in_thread(service) as handle:
        yield handle


def _round_trip(sock: socket.socket, req: dict) -> bytes:
    """Send one request; the raw response frame, header included."""
    sock.sendall(protocol.encode_message(req))
    header = sock.recv(4, socket.MSG_WAITALL)
    (length,) = struct.unpack(">I", header)
    body = bytearray()
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "server closed the connection"
        body += chunk
    return header + bytes(body)


@pytest.mark.parametrize("backend", BACKENDS)
def test_served_sweep_answers_are_json_dumps_bytes(backend, served, road_ch):
    engine = PhastEngine(road_ch)
    n = road_ch.n
    rng = np.random.default_rng(3)
    sources = [int(s) for s in rng.choice(n, size=3, replace=False)]
    targets = [int(t) for t in rng.integers(n, size=64)]
    rows = {s: engine.tree(s).dist for s in sources}
    budget = int(np.median(rows[sources[0]]))
    cases = []
    for s in sources:
        row = rows[s]
        cases += [
            ({"op": "tree", "source": s}, {"dist": row.tolist()}),
            ({"op": "one_to_many", "source": s, "targets": targets},
             {"dist": row[targets].tolist()}),
            ({"op": "isochrone", "source": s, "budget": budget},
             {"vertices": np.flatnonzero(row <= budget).tolist(),
              "count": int(np.count_nonzero(row <= budget))}),
        ]
    # Matrix targets unique to this backend: the first request builds
    # the selection, the second finds it cached.
    cols = targets[:24] + [0 if backend == "kernel" else 1]
    mat = np.stack([rows[s][cols] for s in sources])
    for cached in (False, True):
        cases.append((
            {"op": "matrix", "sources": sources, "targets": cols},
            {"matrix": mat.tolist(), "rows": len(sources), "cols": len(cols),
             "selection_cached": cached},
        ))
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        with socket.create_connection((served.host, served.port),
                                      timeout=30) as sock:
            for i, (req, payload) in enumerate(cases):
                got = _round_trip(sock, {"id": i, **req})
                assert got == protocol.encode_message(
                    protocol.ok_response(i, **payload)), req["op"]
