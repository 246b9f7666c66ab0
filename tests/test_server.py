"""Tests for the async query service (`repro.server`).

The acceptance bar: distances over the wire are bit-identical to a
direct :class:`~repro.core.phast.PhastEngine`, under concurrency, for
all four request types — plus admission control, deadlines, and the
graceful-drain contract.
"""

from __future__ import annotations

import asyncio
import os
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ch import build_topology, customize
from repro.core import PhastEngine
from repro.server import (
    PhastService,
    ProtocolError,
    ServerClient,
    ServerConfig,
    ServerError,
    serve_in_thread,
)
from repro.server import protocol
from repro.server.listener import Connection
from repro.sssp import dijkstra


# ---------------------------------------------------------------------------
# Fixtures


@pytest.fixture(scope="module")
def reference(road, road_ch):
    """Precomputed serial distances (the bit-exactness oracle)."""
    engine = PhastEngine(road_ch)
    return np.stack([engine.tree(s).dist for s in range(road.n)])


@pytest.fixture(scope="module")
def server(road, road_ch):
    """One warm service shared by the read-only tests."""
    service = PhastService(
        road_ch,
        graph=road,
        config=ServerConfig(batch_max=4, max_wait_ms=25.0, max_pending=64),
    )
    with serve_in_thread(service) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServerClient(server.host, server.port) as c:
        yield c


# ---------------------------------------------------------------------------
# Protocol framing


def test_protocol_roundtrip():
    frame = protocol.encode_message({"id": 1, "op": "ping"})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == len(frame) - 4
    assert protocol.decode_body(frame[4:]) == {"id": 1, "op": "ping"}


def test_protocol_rejects_non_object():
    with pytest.raises(ProtocolError):
        protocol.decode_body(b"[1, 2]")
    with pytest.raises(ProtocolError):
        protocol.decode_body(b"{nope")


def test_protocol_rejects_hostile_length(server):
    with socket.create_connection((server.host, server.port), timeout=10) as s:
        s.sendall(struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1))
        # Server must drop the connection rather than buffer 64 MiB.
        s.settimeout(10)
        assert s.recv(1) == b""


# ---------------------------------------------------------------------------
# The four request types: bit-identical to the direct engine


def test_ping_info(client, road):
    assert client.ping()
    info = client.info()
    assert info["n"] == road.n
    assert info["m"] == road.m


def test_tree_bit_identical(client, reference):
    for s in (0, 7, 211, 399):
        assert np.array_equal(client.tree(s), reference[s])


def test_one_to_many_bit_identical(client, reference):
    targets = [0, 3, 17, 399, 17]  # duplicates allowed
    got = client.one_to_many(5, targets)
    assert np.array_equal(got, reference[5][targets])


def test_isochrone_bit_identical(client, reference):
    for budget in (0, 1500, 10**9):
        got = client.isochrone(42, budget)
        assert np.array_equal(got, np.flatnonzero(reference[42] <= budget))


def test_query_bit_identical(client, reference):
    rng = np.random.default_rng(11)
    n = reference.shape[0]
    for _ in range(20):
        s, t = int(rng.integers(n)), int(rng.integers(n))
        resp = client.query(s, t)
        assert resp["distance"] == int(reference[s][t])
        assert resp["reachable"] == bool(reference[s][t] < 2**62)


def test_query_stall_matches(client, reference):
    resp = client.query(3, 311, stall=True)
    assert resp["distance"] == int(reference[3][311])


def test_concurrent_mixed_workload_bit_identical(server, reference):
    """All four ops from parallel closed-loop clients, all bit-exact."""
    n = reference.shape[0]
    errors: list[str] = []

    def worker(tid: int) -> None:
        rng = np.random.default_rng(100 + tid)
        try:
            with ServerClient(server.host, server.port) as c:
                for i in range(16):
                    s = int(rng.integers(n))
                    if i % 4 == 0:
                        t = int(rng.integers(n))
                        assert c.query(s, t)["distance"] == int(reference[s][t])
                    elif i % 4 == 1:
                        assert np.array_equal(c.tree(s), reference[s])
                    elif i % 4 == 2:
                        targets = rng.choice(n, size=6, replace=False)
                        assert np.array_equal(
                            c.one_to_many(s, targets), reference[s][targets]
                        )
                    else:
                        budget = int(rng.integers(1, 5000))
                        assert np.array_equal(
                            c.isochrone(s, budget),
                            np.flatnonzero(reference[s] <= budget),
                        )
        except Exception as exc:  # surfaced via the main thread's assert
            errors.append(f"thread {tid}: {exc!r}")

    threads = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not errors, errors


def test_microbatching_actually_coalesces(server):
    """Concurrent sweep requests must share dispatches (mean size > 1)."""

    def hammer(tid: int) -> None:
        with ServerClient(server.host, server.port) as c:
            for _ in range(10):
                c.one_to_many(tid, [0, 1, 2])

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    with ServerClient(server.host, server.port) as c:
        batches = c.metrics()["batches"]
    assert batches["count"] >= 1
    sizes = {int(k): v for k, v in batches["size_histogram"].items()}
    assert any(size > 1 for size in sizes), sizes
    assert batches["mean_size"] > 1.0


def test_metrics_shape(client, server):
    client.tree(0)
    m = client.metrics()
    assert m["requests_total"]["tree"] >= 1
    lat = m["latency_ms"]["tree"]
    assert lat["count"] >= 1
    assert lat["p50_ms"] <= lat["p99_ms"] <= lat["max_ms"] + 1e-9
    assert m["admission"]["max_pending"] == 64
    assert server.service.trees_computed >= 1
    total_batched = sum(
        int(s) * c for s, c in m["batches"]["size_histogram"].items()
    )
    assert total_batched == m["batches"]["wait_ms"]["count"]


# ---------------------------------------------------------------------------
# Validation, deadlines, admission


def test_bad_requests_rejected_with_400(client, road):
    cases = [
        ("frobnicate", {}),
        ("tree", {}),
        ("tree", {"source": -1}),
        ("tree", {"source": road.n}),
        ("tree", {"source": "zero"}),
        ("tree", {"source": True}),
        ("query", {"source": 0}),
        ("query", {"source": 0, "target": road.n}),
        ("one_to_many", {"source": 0}),
        ("one_to_many", {"source": 0, "targets": []}),
        ("one_to_many", {"source": 0, "targets": [0, road.n]}),
        ("one_to_many", {"source": 0, "targets": "0,1"}),
        ("isochrone", {"source": 0}),
        ("isochrone", {"source": 0, "budget": -1}),
        ("tree", {"source": 0, "timeout_ms": "fast"}),
    ]
    for op, params in cases:
        with pytest.raises(ServerError) as exc_info:
            client.call(op, **params)
        assert exc_info.value.code == 400, (op, params)


_INT = "'targets' must be an integer"
_RANGE = "'targets' must be a vertex id in [0, {n}) (got {got})"
_LIST = "'targets' must be a non-empty list of vertex ids in [0, {n})"


@pytest.mark.parametrize("make,message", [
    (lambda n: [0, True], _INT),
    (lambda n: [0, 1.5], _INT),
    (lambda n: [0, -1], _RANGE),
    (lambda n: [0, n], _RANGE),
    (lambda n: [0, [1]], _INT),
    (lambda n: [], _LIST),
    (lambda n: "0,1", _LIST),
], ids=["bool", "float", "negative", "n", "nested-list", "empty", "non-list"])
def test_vertex_list_rejections_keep_their_messages(server, road, make,
                                                    message):
    """The one-pass ``vertex_list`` check answers each bad list with the
    message the per-element check gives, in validation and on the wire."""
    n = road.n
    targets = make(n)
    expected = message.format(n=n, got=targets[-1] if targets else None)
    spec = protocol.OPS_BY_NAME["one_to_many"]
    with pytest.raises(protocol.RequestValidationError) as exc_info:
        protocol.validate_request(spec, {"source": 0, "targets": targets}, n)
    assert str(exc_info.value) == expected
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        protocol.send_message(sock, {"id": 1, "op": "one_to_many",
                                     "source": 0, "targets": targets})
        resp = protocol.recv_message(sock)
    assert resp["error"] == {"code": 400, "message": expected}


def test_expired_deadline_rejected_with_504(client):
    with pytest.raises(ServerError) as exc_info:
        client.tree(0, timeout_ms=-1)
    assert exc_info.value.code == 504
    with pytest.raises(ServerError) as exc_info:
        client.query(0, 1, timeout_ms=-1)
    assert exc_info.value.code == 504


def test_null_timeout_disables_deadline(client, reference):
    assert np.array_equal(client.tree(9, timeout_ms=None), reference[9])


def test_admission_control_sheds_load(road_ch):
    """More concurrent work than max_pending: every error is a 429, and
    requests are still served.  Whether a 429 happens depends on thread
    timing; ``test_admission_is_the_count_of_owed_answers`` sheds
    deterministically."""
    service = PhastService(
        road_ch,
        config=ServerConfig(batch_max=2, max_wait_ms=50.0, max_pending=2),
    )
    errors: list[int] = []
    served = []

    def worker(tid: int) -> None:
        with ServerClient(handle.host, handle.port) as c:
            for _ in range(6):
                try:
                    c.one_to_many(tid, [0, 1])
                    served.append(tid)
                except ServerError as exc:
                    errors.append(exc.code)

    with serve_in_thread(service) as handle:
        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    assert set(errors) <= {429}, errors
    assert served, "some requests must still be served under overload"


@pytest.fixture(scope="module")
def topo_metric(road):
    """A topology and its metric, for a server that can swap metrics."""
    topo = build_topology(road)
    weights = np.asarray(road.arc_len, dtype=np.int64)
    return topo, customize(topo, weights), weights


def test_admission_is_the_count_of_owed_answers(topo_metric, reference):
    """Admission refuses work while ``max_pending`` answers are owed
    (429) and while draining (503), counting each refusal; slots are
    held and freed on the loop thread, so nothing depends on timing."""
    with pytest.raises(ValueError, match="max_pending"):
        ServerConfig(max_pending=0)
    topo, metric, weights = topo_metric
    service = PhastService(
        topology=topo, metric=metric,
        config=ServerConfig(batch_max=4, max_wait_ms=1.0, max_pending=3),
    )
    work = [("tree", {"source": 3}),
            ("matrix", {"sources": [1, 2], "targets": [5, 7]}),
            ("swap_metric", {"weights": weights.tolist()})]
    handle = serve_in_thread(service)
    try:
        with ServerClient(handle.host, handle.port) as c:
            _on_loop(handle, lambda: [service._owe() for _ in range(3)])
            for op, params in work:
                with pytest.raises(ServerError) as exc_info:
                    c.call(op, **params)
                assert exc_info.value.code == 429, op
            admission = c.metrics()["admission"]
            assert admission == {
                "max_pending": 3, "pending": 3, "draining": False,
                "admitted_total": 0,
                "rejected": {"overloaded": 3, "draining": 0},
            }
            _on_loop(handle, lambda: [service._settle() for _ in range(3)])
            tree, matrix, swap = [c.call(op, **params) for op, params in work]
            assert np.array_equal(tree["dist"], reference[3])
            assert matrix["matrix"] == [
                [int(reference[s][t]) for t in (5, 7)] for s in (1, 2)]
            assert swap["metric_generation"] == 1
            admission = c.metrics()["admission"]
            assert admission["pending"] == 0
            assert admission["admitted_total"] == 3
            # One owed answer holds the drain open while a request
            # arrives on this still-open connection.
            _on_loop(handle, service._owe)
            handle.loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(service.drain()))
            deadline = time.monotonic() + 10
            while (not _on_loop(handle, lambda: service.draining)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with pytest.raises(ServerError) as exc_info:
                c.tree(3)
            assert exc_info.value.code == 503
            admission = c.metrics()["admission"]
            assert admission["draining"] is True
            assert admission["rejected"] == {"overloaded": 3, "draining": 1}
            _on_loop(handle, service._settle)
            handle.thread.join(30)
            assert not handle.thread.is_alive(), "the drain did not finish"
    finally:
        handle.stop()
    assert service.admission()["pending"] == 0


# ---------------------------------------------------------------------------
# Graceful drain


def _shm_names() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def test_graceful_drain_completes_inflight_and_unlinks_shm(road_ch, reference):
    """Drain mid-burst on the default server: admitted work finishes
    bit-exact, new work gets 503/connection-refused, and no shared
    memory segment is created (none is left to unlink)."""
    before = _shm_names()
    service = PhastService(
        road_ch, config=ServerConfig(batch_max=4, max_wait_ms=10.0),
    )
    handle = serve_in_thread(service)
    outcomes: list[str] = []
    lock = threading.Lock()
    first_ok = threading.Event()

    def worker(tid: int) -> None:
        try:
            with ServerClient(handle.host, handle.port) as c:
                for i in range(20):
                    got = c.tree((tid * 31 + i) % reference.shape[0])
                    assert np.array_equal(
                        got, reference[(tid * 31 + i) % reference.shape[0]]
                    )
                    with lock:
                        outcomes.append("ok")
                    first_ok.set()
        except ServerError as exc:
            assert exc.code == 503, exc
            with lock:
                outcomes.append("draining")
        except (ConnectionError, OSError):
            with lock:
                outcomes.append("closed")

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    assert first_ok.wait(60)  # let the burst actually reach the server
    handle.stop()  # drain while the burst is in flight
    for t in threads:
        t.join(120)
    assert "ok" in outcomes  # in-flight work completed
    assert _shm_names() <= before
    # And the port must be closed.
    with pytest.raises(OSError):
        socket.create_connection((handle.host, handle.port), timeout=2)


def test_batching_off_mode_still_correct(road_ch, reference):
    service = PhastService(
        road_ch, config=ServerConfig(batch_max=1, max_wait_ms=0.0)
    )
    with serve_in_thread(service) as handle:
        with ServerClient(handle.host, handle.port) as c:
            assert c.info()["batch_max"] == 1
            for s in (1, 2, 3):
                assert np.array_equal(c.tree(s), reference[s])


def test_same_source_requests_take_one_lane_each(road_ch, reference):
    """Concurrent requests sharing a source each take a sweep lane.

    Every request below uses source 3, batches of size > 1 form, and
    every answer is still bit-identical.
    """
    service = PhastService(
        road_ch,
        config=ServerConfig(batch_max=8, max_wait_ms=25.0),
    )
    with serve_in_thread(service) as handle:
        failures: list[str] = []

        def hammer(tid: int) -> None:
            try:
                with ServerClient(handle.host, handle.port) as c:
                    for i in range(10):
                        targets = [tid, i, (tid + i) % 36]
                        got = c.one_to_many(3, targets)
                        want = [int(reference[3][t]) for t in targets]
                        if not np.array_equal(got, want):
                            failures.append(f"{got} != {want}")
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        with ServerClient(handle.host, handle.port) as c:
            batches = c.metrics()["batches"]
    assert not failures, failures[:3]
    sizes = {int(k): v for k, v in batches["size_histogram"].items()}
    assert any(size > 1 for size in sizes), sizes
    # One lane per request: mean_lanes is mean_size.
    assert batches["mean_lanes"] == batches["mean_size"]


# ---------------------------------------------------------------------------
# Serving model: sweeps on the loop, no task or future per request


def _pipeline(handle, frames: list[dict]) -> socket.socket:
    sock = socket.create_connection((handle.host, handle.port), timeout=10)
    sock.settimeout(10)
    sock.sendall(b"".join(protocol.encode_message(f) for f in frames))
    return sock


def _on_loop(handle, fn):
    """``fn()``'s value, computed on the server's event-loop thread."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), handle.loop).result(10)


def _pending(handle) -> int:
    """Answers the server owes, read on its loop thread."""
    return _on_loop(handle, lambda: handle.service.admission()["pending"])


def test_disconnect_with_queued_sweeps_frees_admission(road_ch, reference):
    """Pipelined sweeps still queued when their client goes away release
    their admission slots, and the server goes on answering others."""
    service = PhastService(
        road_ch, config=ServerConfig(batch_max=4, max_wait_ms=1.0),
    )
    sweep = service.batcher.sweep_fn

    def slow_sweep(sources):
        time.sleep(0.01)  # keeps the burst queued behind each batch
        return sweep(sources)

    service.batcher.sweep_fn = slow_sweep
    with serve_in_thread(service) as handle:
        sock = _pipeline(handle, [{"id": i, "op": "tree", "source": i}
                                  for i in range(48)])
        assert protocol.recv_message(sock)["ok"]
        sock.close()
        deadline = time.monotonic() + 10
        while (_pending(handle) and time.monotonic() < deadline):
            time.sleep(0.01)
        assert _pending(handle) == 0
        with ServerClient(handle.host, handle.port) as c:
            assert np.array_equal(c.tree(5), reference[5])
        swept = _on_loop(handle, lambda: service.trees_computed)
    # The warm-up tree, the other client's, and not every dropped lane.
    assert swept < 1 + 48 + 1


def test_pipelined_burst_sweeps_on_the_loop_without_tasks(road_ch,
                                                         reference):
    """A burst of 32 trees runs every sweep batch on the event-loop
    thread, and the loop's task count does not grow with the burst."""
    service = PhastService(road_ch, config=ServerConfig(max_wait_ms=1.0))
    sweep = service.batcher.sweep_fn
    seen: list[tuple[threading.Thread, int]] = []

    def watched_sweep(sources):
        seen.append((threading.current_thread(), len(asyncio.all_tasks())))
        return sweep(sources)

    service.batcher.sweep_fn = watched_sweep
    with serve_in_thread(service) as handle:
        frames = [{"id": i, "op": "tree", "source": i} for i in range(32)]
        with ServerClient(handle.host, handle.port) as c:
            assert c.ping()
            # The probe's own task is counted here and not in the burst.
            idle_tasks = _on_loop(handle, lambda: len(asyncio.all_tasks()))
            with _pipeline(handle, frames) as sock:
                answers = {}
                for _ in frames:
                    resp = protocol.recv_message(sock)
                    answers[resp["id"]] = resp["dist"]
    assert sorted(answers) == list(range(32))
    for i, dist in answers.items():
        assert np.array_equal(dist, reference[i])
    assert seen, "no sweep batch ran"
    assert {thread for thread, _ in seen} == {handle.thread}
    # One more connection reader than at idle, and nothing per frame.
    assert max(tasks for _, tasks in seen) <= idle_tasks + 1


def test_health_pipelined_behind_a_full_batch_is_answered(road_ch,
                                                          reference):
    service = PhastService(
        road_ch, config=ServerConfig(batch_max=16, max_wait_ms=1.0),
    )
    frames = [{"id": i, "op": "tree", "source": i} for i in range(16)]
    frames.append({"id": "h", "op": "health"})
    with serve_in_thread(service) as handle:
        with _pipeline(handle, frames) as sock:
            answers = {}
            for _ in frames:
                resp = protocol.recv_message(sock)
                answers[resp["id"]] = resp
    assert answers["h"]["ok"] and answers["h"]["ready"] is True
    for i in range(16):
        assert np.array_equal(answers[i]["dist"], reference[i])


def _sink(written: list):
    """A transport that keeps what it is written."""
    return SimpleNamespace(is_closing=lambda: False, write=written.append,
                           close=lambda: None)


def _frames(stream: bytes) -> list[bytes]:
    """A response stream cut into its frames, headers included."""
    frames, at = [], 0
    while at < len(stream):
        end = at + 4 + protocol.frame_length(stream, at)
        frames.append(stream[at:end])
        at = end
    return frames


def test_one_read_takes_the_record_path_byte_for_byte(road, road_ch):
    """One read of pipelined frames: sweep requests the intake reads
    (queued as records, a run of them cut where ``timeout_ms``
    changes), ones it declines (an escaped id, a float timeout: queued
    as one-record chunks), pings, a request that
    expires in the queue (504) and more work than ``max_pending``
    (429).  The connection gets the bytes ``encode_message`` gives the
    Dijkstra rows, in the order the loop answers them: the immediate
    answers while the read is taken in, then the queue in order, 4
    lanes a batch.  Without the kernels every frame is declined and
    the bytes are the same."""
    service = PhastService(road_ch, config=ServerConfig(
        batch_max=4, max_wait_ms=1.0, max_pending=8))
    rows = {s: dijkstra(road, s, with_parents=False).dist
            for s in (3, 11, 17, 23, 42, 77, 150)}
    targets = [0, 9, 9, 399]
    budget = int(np.median(rows[17]))
    bodies = [
        b'{"id":0,"op":"tree","source":3}',
        b'{"id":1,"op":"one_to_many","source":11,"targets":[0,9,9,399],'
        b'"timeout_ms":60000}',
        b'{"id":2,"op":"isochrone","source":17,"budget":%d}' % budget,
        b'{"id":"\\u0061b","op":"tree","source":23}',
        b'{"id":"p","op":"ping"}',
        b'{"id":5,"op":"tree","source":42,"timeout_ms":0}',
        b'{"id":6,"op":"isochrone","source":150,"budget":%d}' % budget,
        b'{"id":7,"op":"one_to_many","source":77,"targets":[0,9,9,399],'
        b'"timeout_ms":30000.5}',
        b'{"id":8,"op":"tree","source":3}',
        b'{"id":9,"op":"tree","source":11}',
        b'{"id":10,"op":"one_to_many","source":11,"targets":[1]}',
        b'{"id":"q","op":"ping"}',
    ]
    read = b"".join(struct.pack(">I", len(b)) + b for b in bodies)
    ok = protocol.ok_response

    def iso(row):
        vertices = np.flatnonzero(row <= budget).tolist()
        return {"vertices": vertices, "count": len(vertices)}

    refused = "request rejected: overloaded"
    want = [ok("p", pong=True),
            protocol.error_response(9, protocol.OVERLOADED, refused),
            protocol.error_response(10, protocol.OVERLOADED, refused),
            ok("q", pong=True),
            ok(0, dist=rows[3].tolist()),
            ok(1, dist=rows[11][targets].tolist()),
            ok(2, **iso(rows[17])),
            ok("ab", dist=rows[23].tolist()),
            None,  # 504, its message naming the time it queued
            ok(6, **iso(rows[150])),
            ok(7, dist=rows[77][targets].tolist()),
            ok(8, dist=rows[3].tolist())]
    written: list = []
    with serve_in_thread(service) as handle:
        conn = Connection(_sink(written), service)
        _on_loop(handle, lambda: conn.data_received(read))
        deadline = time.monotonic() + 10
        while _pending(handle) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _pending(handle) == 0
        admission = _on_loop(handle, service.admission)
    got = _frames(b"".join(written))
    assert len(got) == len(want)
    for frame, msg in zip(got, want):
        if msg is not None:
            assert frame == protocol.encode_message(msg)
    late = protocol.decode_body(got[8][4:])
    assert late["id"] == 5 and late["error"]["code"] == protocol.DEADLINE
    assert admission["admitted_total"] == 8
    assert admission["rejected"]["overloaded"] == 2
    assert all(type(w) is bytes for w in written)


def test_a_dropped_connection_frees_its_queued_records(road_ch, reference):
    """Records still queued when their connection goes away free their
    admission slots at once, and their lanes are never swept."""
    service = PhastService(road_ch, config=ServerConfig(
        batch_max=4, max_wait_ms=1.0, max_pending=16))
    read = b"".join(protocol.encode_message(
        {"id": i, "op": "tree", "source": i}) for i in range(10))
    written: list = []
    with serve_in_thread(service) as handle:
        swept = _on_loop(handle, lambda: service.trees_computed)
        conn = Connection(_sink(written), service)

        def take_and_drop() -> int:
            conn.data_received(read)
            owed = service.admission()["pending"]
            conn.connection_lost(None)
            return owed

        assert _on_loop(handle, take_and_drop) == 10
        assert _pending(handle) == 0
        assert not conn.owed
        with ServerClient(handle.host, handle.port) as c:
            assert np.array_equal(c.tree(5), reference[5])
        assert _on_loop(handle, lambda: service.trees_computed) == swept + 1
    assert written == []


def test_the_loop_owns_serving_state(topo_metric, reference):
    """Every metrics call and every admission change happens on the
    event-loop thread, whichever op caused it: the sweep ops, a matrix
    and a metric swap (both run on an executor thread), a query, an
    error, a connection dropped with sweeps still queued, and the
    drain."""
    topo, metric, weights = topo_metric
    service = PhastService(
        topology=topo, metric=metric,
        config=ServerConfig(batch_max=4, max_wait_ms=1.0),
    )
    calls: list[tuple[str, int]] = []

    def watch(obj, name: str) -> None:
        fn = getattr(obj, name)

        def watched(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        setattr(obj, name, watched)

    for name in dir(service.metrics):
        if not name.startswith("_") and callable(getattr(service.metrics,
                                                         name)):
            watch(service.metrics, name)
    for name in ("_refusal", "_owe", "_settle"):
        watch(service, name)
    sweep = service.batcher.sweep_fn

    def slow_sweep(sources):
        time.sleep(0.005)  # keeps the dropped burst queued
        return sweep(sources)

    handle = serve_in_thread(service)
    try:
        with ServerClient(handle.host, handle.port) as c:
            assert np.array_equal(c.tree(1), reference[1])
            assert np.array_equal(c.one_to_many(2, [0, 9]),
                                  reference[2][[0, 9]])
            assert np.array_equal(c.isochrone(3, 1500),
                                  np.flatnonzero(reference[3] <= 1500))
            assert np.array_equal(c.matrix([1, 2], [5, 7]),
                                  reference[np.ix_([1, 2], [5, 7])])
            assert c.query(4, 8)["distance"] == reference[4][8]
            assert c.swap_metric(weights=weights)["metric_generation"] == 1
            with pytest.raises(ServerError):
                c.tree(0, timeout_ms=-1)
            service.batcher.sweep_fn = slow_sweep
            sock = _pipeline(handle, [{"id": i, "op": "tree", "source": i}
                                      for i in range(32)])
            assert protocol.recv_message(sock)["ok"]
            sock.close()
            deadline = time.monotonic() + 10
            while _pending(handle) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _pending(handle) == 0
            metrics = c.metrics()
    finally:
        handle.stop()
    assert metrics["matrix"]["requests"] == 1
    assert metrics["swaps"] == {"total": 1, "metric_generation": 1}
    names = {name for name, _ in calls}
    assert {"record_matrix", "record_batch", "record_error",
            "_refusal", "_owe", "_settle"} <= names, names
    off_loop = sorted({name for name, ident in calls
                       if ident != handle.thread.ident})
    assert not off_loop, f"called off the event-loop thread: {off_loop}"


# ---------------------------------------------------------------------------
# Matrices and metric swaps leave the batcher for one exclusive thread


class _HeldCustomize:
    """``customize`` held at its start until ``release``: a swap in
    flight for as long as a test needs one."""

    def __init__(self, monkeypatch) -> None:
        module = sys.modules["repro.ch.customize"]
        real = module.customize
        self.entered = threading.Event()
        self.released = threading.Event()
        self.calls = 0

        def held(*args, **kwargs):
            self.calls += 1
            self.entered.set()
            assert self.released.wait(60), "the swap was never released"
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "customize", held)


@pytest.fixture(scope="module")
def new_metric(road, topo_metric):
    """Other weights for a swap, and an engine over them."""
    topo = topo_metric[0]
    new_w = np.random.default_rng(31).integers(1, 5_000, size=road.m)
    return new_w, PhastEngine(topo.instantiate(customize(topo, new_w)))


def _swap_service(topo_metric) -> PhastService:
    topo, metric, _ = topo_metric
    return PhastService(topology=topo, metric=metric, config=ServerConfig(
        batch_max=4, max_wait_ms=1.0, max_pending=64))


def _swap_in_background(pool, handle, new_w):
    """A swap to ``new_w`` sent from a thread of ``pool``; its future."""

    def swap() -> dict:
        with ServerClient(handle.host, handle.port, max_retries=0) as c:
            return c.swap_metric(weights=new_w, timeout=60)

    return pool.submit(swap)


def test_sweeps_are_answered_on_the_old_metric_while_a_swap_customizes(
        topo_metric, reference, new_metric, monkeypatch):
    """A tree sent while a swap customizes is answered at once, on the
    old metric; a tree sent after the swap's ack is on the new one."""
    new_w, new_engine = new_metric
    service = _swap_service(topo_metric)
    held = _HeldCustomize(monkeypatch)
    with serve_in_thread(service) as handle, \
            ThreadPoolExecutor(max_workers=1) as pool:
        swap = _swap_in_background(pool, handle, new_w)
        try:
            assert held.entered.wait(30)
            with ServerClient(handle.host, handle.port, timeout=10,
                              max_retries=0) as c:
                assert np.array_equal(c.tree(17), reference[17])
                assert np.array_equal(c.one_to_many(5, [0, 9]),
                                      reference[5][[0, 9]])
            assert not swap.done()
        finally:
            held.released.set()
        assert swap.result(60)["metric_generation"] == 1
        with ServerClient(handle.host, handle.port) as c:
            assert np.array_equal(c.tree(17), new_engine.tree(17).dist)


def test_a_matrix_pipelined_behind_a_swap_is_on_the_new_metric(
        topo_metric, reference, new_metric):
    """One write holding a swap and then a matrix over a target set
    whose selection is cached: the matrix runs after the swap, on the
    new metric's selection."""
    new_w, new_engine = new_metric
    sources, targets = [3, 9, 27], [5, 50, 100, 200]
    want = np.stack([new_engine.tree(s).dist[targets] for s in sources])
    service = _swap_service(topo_metric)
    with serve_in_thread(service) as handle:
        with ServerClient(handle.host, handle.port) as c:
            assert np.array_equal(c.matrix(sources, targets),
                                  reference[np.ix_(sources, targets)])
        with _pipeline(handle, [
                {"id": "s", "op": "swap_metric", "weights": new_w.tolist()},
                {"id": "m", "op": "matrix", "sources": sources,
                 "targets": targets}]) as sock:
            answers = {}
            for _ in range(2):
                msg = protocol.recv_message(sock)
                answers[msg["id"]] = msg
    assert answers["s"]["ok"] and answers["s"]["metric_generation"] == 1
    assert np.array_equal(answers["m"]["matrix"], want)


def test_a_swap_queued_past_its_deadline_never_runs(topo_metric,
                                                     new_metric,
                                                     monkeypatch):
    """A swap queued behind a swap in flight, with a deadline that
    passes while it waits, is answered 504 and never customizes."""
    new_w, _ = new_metric
    service = _swap_service(topo_metric)
    held = _HeldCustomize(monkeypatch)
    with serve_in_thread(service) as handle, \
            ThreadPoolExecutor(max_workers=1) as pool:
        swap = _swap_in_background(pool, handle, new_w)
        try:
            assert held.entered.wait(30)
            sock = _pipeline(handle, [{
                "id": 2, "op": "swap_metric", "weights": new_w.tolist(),
                "timeout_ms": 50}])
            time.sleep(0.2)
        finally:
            held.released.set()
        with sock:
            late = protocol.recv_message(sock)
        assert swap.result(60)["metric_generation"] == 1
        with ServerClient(handle.host, handle.port) as c:
            generation = c.info()["metric_generation"]
    assert not late["ok"] and late["error"]["code"] == protocol.DEADLINE
    assert "before dispatch" in late["error"]["message"]
    assert generation == 1 and held.calls == 1


def test_a_queued_matrix_whose_client_left_is_never_computed(
        topo_metric, new_metric, monkeypatch):
    """A matrix queued behind a swap in flight frees its admission slot
    when its client goes away, and is skipped when its turn comes."""
    new_w, new_engine = new_metric
    service = _swap_service(topo_metric)
    held = _HeldCustomize(monkeypatch)
    computed: list = []
    matrix_payload = service._matrix_payload

    def counted(sources, targets):
        computed.append(sources)
        return matrix_payload(sources, targets)

    service._matrix_payload = counted
    with serve_in_thread(service) as handle, \
            ThreadPoolExecutor(max_workers=1) as pool:
        swap = _swap_in_background(pool, handle, new_w)
        try:
            assert held.entered.wait(30)
            sock = _pipeline(handle, [{"id": 1, "op": "matrix",
                                       "sources": [1, 2],
                                       "targets": [5, 7]}])
            deadline = time.monotonic() + 10
            while _pending(handle) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _pending(handle) == 2  # the swap and the matrix
            sock.close()
            while _pending(handle) > 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _pending(handle) == 1
        finally:
            held.released.set()
        assert swap.result(60)["metric_generation"] == 1
        with ServerClient(handle.host, handle.port) as c:
            got = c.matrix([3], [5, 7])
    assert computed == [[3]]
    assert np.array_equal(got[0], new_engine.tree(3).dist[[5, 7]])


def test_every_sweep_batch_runs_on_the_loop_while_a_swap_is_in_flight(
        topo_metric, reference, new_metric, monkeypatch):
    """Trees pipelined right behind a swap, and trees sent while it
    customizes, are all swept on the event-loop thread."""
    new_w, _ = new_metric
    service = _swap_service(topo_metric)
    held = _HeldCustomize(monkeypatch)
    sweep = service.batcher.sweep_fn
    seen: list[tuple[threading.Thread, bool]] = []

    def watched_sweep(sources):
        in_flight = held.entered.is_set() and not held.released.is_set()
        seen.append((threading.current_thread(), in_flight))
        return sweep(sources)

    service.batcher.sweep_fn = watched_sweep
    with serve_in_thread(service) as handle:
        sock = _pipeline(handle, [
            {"id": "s", "op": "swap_metric", "weights": new_w.tolist()},
            *({"id": i, "op": "tree", "source": i} for i in range(6))])
        try:
            assert held.entered.wait(30)
            with ServerClient(handle.host, handle.port, timeout=10,
                              max_retries=0) as c:
                for s in (10, 11, 12):
                    assert np.array_equal(c.tree(s), reference[s])
        finally:
            held.released.set()
        with sock:
            answers = {}
            for _ in range(7):
                msg = protocol.recv_message(sock)
                answers[msg["id"]] = msg
    assert answers["s"]["ok"]
    for i in range(6):
        assert answers[i]["dist"] == reference[i].tolist()
    assert {thread for thread, _ in seen} == {handle.thread}
    assert any(in_flight for _, in_flight in seen)


# ---------------------------------------------------------------------------
# Generation signals + persistent-connection client (router substrate)


def test_health_reports_generation_signals(client, server):
    """The ``health`` op carries the restart-detection fields a router
    keys generation changes on: pid, listening address, and a
    monotonic ``uptime_seconds`` that only moves backwards when the
    process is new."""
    health = client.health()
    assert health["pid"] == os.getpid()  # in-thread server, same process
    assert health["address"] == f"{server.host}:{server.port}"
    assert health["uptime_seconds"] >= 0.0
    assert client.health()["uptime_seconds"] >= health["uptime_seconds"]


def test_client_reuses_one_connection(server):
    with ServerClient(server.host, server.port) as c:
        for _ in range(10):
            assert c.ping()
        assert c.connected
        assert c.connects_total == 1
        assert c.reconnects_total == 0


def test_client_reconnects_after_connection_loss(server):
    with ServerClient(server.host, server.port) as c:
        assert c.ping()
        # Kill the transport under the client; the next call must
        # notice, reconnect, and succeed — counted as one reconnect.
        c._sock.shutdown(socket.SHUT_RDWR)
        assert c.ping()
        assert c.connects_total == 2
        assert c.reconnects_total == 1
