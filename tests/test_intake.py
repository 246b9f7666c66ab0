"""The request intake against the reference decode, field for field.

The frame server splits each read into frames with
:func:`repro.server.protocol.parse_requests`; with the compiled kernels
it also reads the sweep requests of a strict JSON subset
(:func:`repro.utils.native.parse_requests`).  For any body, the intake
must either decline it — and leave it to ``json.loads`` and
``validate_request`` — or give exactly the fields those give, with the
id's text the bytes a response writes for it.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.utils import native

N = 500

SWEEP_OPS = ("tree", "one_to_many", "isochrone")

needs_native = pytest.mark.skipif(
    not native.native_available(), reason="no compiled kernels here"
)

BACKENDS = [pytest.param("kernel", marks=needs_native), "fallback"]


def _use(mp: pytest.MonkeyPatch, backend: str) -> None:
    if backend == "fallback":
        mp.setattr(native, "_lib", False)


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


# ---------------------------------------------------------------------------
# Bodies


WS = st.sampled_from(["", "", " ", "\n", "\t", "\r\n ", "  "])
#: Ids the subset takes: canonical integers of up to 18 digits, and
#: strings of printable ASCII other than '"' and '\'.
PLAIN = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
IDS = (st.integers(-(10**18) + 1, 10**18 - 1).map(str)
       | st.text(alphabet=PLAIN, max_size=8).map(lambda s: f'"{s}"'))


@st.composite
def requests(draw) -> list[tuple[str, str]]:
    """A sweep request of the subset as ``(key, value text)`` pairs,
    keys in any order."""
    op = draw(st.sampled_from(SWEEP_OPS))
    pairs = [("id", draw(IDS)), ("op", f'"{op}"'),
             ("source", str(draw(st.integers(0, N - 1))))]
    if op == "one_to_many":
        targets = draw(st.lists(st.integers(0, N - 1), min_size=1,
                                max_size=12))
        pairs.append(("targets", "[" + ",".join(
            draw(WS) + str(t) + draw(WS) for t in targets) + "]"))
    elif op == "isochrone":
        pairs.append(("budget", str(draw(st.integers(0, 10**18 - 1)))))
    if draw(st.booleans()):
        pairs.append(("timeout_ms", draw(
            st.just("null") | st.integers(-(10**17), 10**17).map(str))))
    return draw(st.permutations(pairs))


def _render(draw, pairs) -> str:
    return (draw(WS) + "{" + ",".join(
        draw(WS) + json.dumps(key) + draw(WS) + ":" + draw(WS) + value
        + draw(WS) for key, value in pairs) + "}" + draw(WS))


#: Values in place of a field's: each breaks the subset, and most the
#: request.
BAD_VALUES = [
    "3.0", "1e3", "1E3", "-0", "007", "00", "-", "+3", "1234567890123456789",
    "-1234567890123456789", "99999999999999999999999", "true", "false",
    "null", '"3"', "[]", "{}", "[1,]", "-1", str(N), str(10**18), "0.5",
    '"tr\\u0065e"', '"a\\nb"', '"é"', '"\\"q"', "[1, 2.0]", "[1e2]",
    "[-0]", "[01]", "[null]", "[[1]]",
]
BAD_KEYS = ["sources", "target", "Source", "ID", "i\\u0064", "extra", ""]
OTHER_OPS = ['"query"', '"matrix"', '"ping"', '"swap_metric"', '"Tree"',
             '"tree "', '"one-to-many"', "null", "1"]


@st.composite
def bodies(draw) -> bytes:
    """A valid sweep request, or one mutated away from the subset."""
    pairs = list(draw(requests()))
    kind = draw(st.sampled_from([
        "valid", "duplicate", "value", "key", "drop", "op", "non_ascii",
        "truncate", "insert", "not_object"]))
    if kind == "duplicate":
        key, value = draw(st.sampled_from(pairs))
        other = draw(st.just(value) | st.sampled_from(BAD_VALUES))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, other))
    elif kind == "value":
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (pairs[i][0], draw(st.sampled_from(BAD_VALUES)))
    elif kind == "key":
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = (draw(st.sampled_from(BAD_KEYS)), pairs[i][1])
    elif kind == "drop":
        pairs.pop(draw(st.integers(0, len(pairs) - 1)))
    elif kind == "op":
        pairs = [(k, draw(st.sampled_from(OTHER_OPS)) if k == "op" else v)
                 for k, v in pairs]
    elif kind == "non_ascii":
        pairs = [(k, '"été"' if k == "id" else v)
                 for k, v in pairs]
    text = _render(draw, pairs)
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list('{}[],:"x0 -.\\'))) + text[at:]
    elif kind == "not_object":
        text = "[" + text + "]"
    return text.encode()


# ---------------------------------------------------------------------------
# The property


def _reference(body: bytes):
    """What the decode path makes of ``body``: its message and fields,
    or ``None`` when it does not take it as a sweep request."""
    try:
        msg = json.loads(body)
    except ValueError:
        return None
    if not isinstance(msg, dict) or msg.get("op") not in SWEEP_OPS:
        return None
    spec = protocol.OPS_BY_NAME[msg["op"]]
    try:
        return msg, protocol.validate_request(spec, msg, N)
    except protocol.RequestValidationError:
        return None


def _intake(body: bytes) -> dict | None:
    """The intake's reading of one frame holding ``body``, or ``None``
    when it declines it."""
    data = b"xy" + _frame(body)  # bounds are offsets into the read
    records, end, targets = protocol.parse_requests(data, 2, N)
    assert end == len(data)
    assert len(records) == protocol.RECORD
    start, stop, code, id_start, id_end, source, a, b, timeout = records
    assert data[start:stop] == body
    if code < 0:
        return None
    got = {"op": SWEEP_OPS[code], "id_text": data[id_start:id_end],
           "source": source}
    if code == 1:
        got["targets"] = targets[a:b].tolist()
    elif code == 2:
        got["budget"] = a
    got["timeout_ms"] = ("unset" if timeout == native.TIMEOUT_UNSET
                         else None if timeout == native.TIMEOUT_NULL
                         else timeout)
    return got


def _agrees(body: bytes) -> bool:
    """Whether the intake took ``body``; asserts that if it did, the
    reference reads the same request."""
    got = _intake(body)
    if got is None:
        return False
    ref = _reference(body)
    assert ref is not None, body
    msg, fields = ref
    assert got["op"] == msg["op"]
    assert got["id_text"] == json.dumps(msg["id"]).encode()
    assert type(json.loads(got["id_text"])) is type(msg["id"])
    for name, value in fields.items():
        assert got[name] == value and type(got[name]) is type(value), name
    return True


@pytest.mark.parametrize("backend", BACKENDS)
@given(body=bodies())
@settings(max_examples=600, deadline=None)
def test_intake_declines_or_agrees_with_the_reference(backend, body):
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        _agrees(body)


@needs_native
@given(pairs=requests(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_every_request_of_the_subset_is_taken(pairs, data):
    """The subset is not empty: shuffled keys and whitespace included,
    each such request is read in C."""
    body = _render(data.draw, pairs).encode()
    assert _agrees(body), body


@pytest.mark.parametrize("backend", BACKENDS)
def test_frames_split_at_the_first_incomplete_or_oversized_frame(backend):
    bodies = [b'{"id":1,"op":"tree","source":3}', b'{"op":"ping"}', b"x"]
    data = b"".join(map(_frame, bodies))
    ends = [sum(len(b) + 4 for b in bodies[:i + 1]) for i in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        for cut in range(len(data) + 1):
            records, end, _ = protocol.parse_requests(data[:cut], 0, N)
            whole = sum(e <= cut for e in ends)
            assert [data[records[i]:records[i + 1]] for i in range(
                0, len(records), protocol.RECORD)] == bodies[:whole]
            assert end == (ends[whole - 1] if whole else 0)
        huge = struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1) + b"{}"
        records, end, _ = protocol.parse_requests(data + huge, 0, N)
        assert len(records) == 3 * protocol.RECORD and end == len(data)
        with pytest.raises(protocol.ProtocolError):
            protocol.frame_length(data + huge, end)


@needs_native
def test_a_frame_whose_targets_do_not_fit_is_declined(monkeypatch):
    """Targets past the intake's room decline their frame, not the
    read: the frames around it are still taken."""
    monkeypatch.setattr(native, "_INTAKE_TARGETS", 4)
    bodies = [b'{"id":1,"op":"one_to_many","source":0,"targets":[1,2,3]}',
              b'{"id":2,"op":"one_to_many","source":0,"targets":[4,5]}',
              b'{"id":3,"op":"one_to_many","source":0,"targets":[6]}']
    records, _, targets = protocol.parse_requests(
        b"".join(map(_frame, bodies)), 0, N)
    codes = records[2::protocol.RECORD]
    assert codes.tolist() == [1, -1, 1]
    assert targets.tolist() == [1, 2, 3, 6]


@given(req_id=st.integers(-(10**18) + 1, 10**18 - 1)
       | st.text(alphabet=PLAIN, max_size=8))
def test_an_id_kept_as_its_text_is_written_as_the_id(req_id):
    """Errors (429, 503, 504) and answers to an intake-read request
    carry its id as the text it came in: the bytes the decoded id
    gives."""
    text = protocol.encoded(json.dumps(req_id).encode())
    for make in (lambda i: protocol.error_response(i, 429, "busy"),
                 lambda i: protocol.ok_response(i, count=3)):
        assert (protocol.encode_message(make(text))
                == protocol.encode_message(make(req_id)))


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_parse_stops_after_its_record_limit(backend):
    """A read of more frames than one parse records is taken in more
    parses, each from where the last one ended."""
    body = b'{"id":1,"op":"tree","source":3}'
    count = protocol.INTAKE_RECORDS + 5
    data = _frame(body) * count
    with pytest.MonkeyPatch.context() as mp:
        _use(mp, backend)
        first, end, _ = protocol.parse_requests(data, 0, N)
        rest, stop, _ = protocol.parse_requests(data, end, N)
    assert len(first) == protocol.RECORD * protocol.INTAKE_RECORDS
    assert end == protocol.INTAKE_RECORDS * (len(body) + 4)
    assert len(rest) == protocol.RECORD * 5 and stop == len(data)
