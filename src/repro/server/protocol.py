"""Wire protocol: 4-byte big-endian length prefix + UTF-8 JSON body.

One frame per message in both directions.  JSON keeps the protocol
inspectable and stdlib-only; the length prefix makes framing exact
under pipelining (a client may have many requests in flight on one
connection — responses carry the request ``id`` and may arrive out of
order).

Requests::

    {"id": 7, "op": "tree", "source": 42, "timeout_ms": 250.0}

Responses::

    {"id": 7, "ok": true, ...payload}
    {"id": 7, "ok": false, "error": {"code": 429, "message": "..."}}

Error codes follow the familiar HTTP meanings so operators need no
legend: 400 bad request, 429 shed by admission control, 500 internal,
503 draining/unavailable, 504 deadline exceeded.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from array import array
from dataclasses import dataclass, field

import numpy as np

from ..utils import native

__all__ = [
    "HEADER_BYTES",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RequestValidationError",
    "BAD_REQUEST",
    "OVERLOADED",
    "INTERNAL",
    "UNAVAILABLE",
    "DEADLINE",
    "Param",
    "OpSpec",
    "OPS",
    "OPS_BY_NAME",
    "WORK_OPS",
    "ADMIN_OPS",
    "CONTROL_OPS",
    "validate_request",
    "encode_message",
    "frame_too_large",
    "int_array",
    "sweep_frames",
    "decode_body",
    "encoded",
    "id_text",
    "frame_length",
    "parse_requests",
    "read_message",
    "write_message",
    "send_message",
    "recv_message",
    "ok_response",
    "error_response",
]

#: Bumped when the op set or a request/response shape changes in a way
#: clients must feature-detect.  Version 2 added the registry itself,
#: ``swap_metric``, and the ``protocol_version``/``ops`` fields in
#: ``health``/``info``.
PROTOCOL_VERSION = 2

#: Hard cap on one frame; a full-tree response at paper scale (18M
#: vertices) would not fit, but such deployments should use
#: ``one_to_many`` — the cap protects the server from hostile lengths.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")
#: Bytes of a frame's length header.
HEADER_BYTES = _HEADER.size

BAD_REQUEST = 400
OVERLOADED = 429
INTERNAL = 500
UNAVAILABLE = 503
DEADLINE = 504


class ProtocolError(RuntimeError):
    """The peer sent a frame this protocol cannot accept."""


class _Fragment:
    """A JSON value already encoded: an array made by :func:`int_array`,
    or a request id as the intake read it (:func:`encoded`).

    :func:`encode_message` splices one in as a top-level value of a
    message.  ``json.dumps`` knows no such type, so a fragment nested
    anywhere deeper raises ``TypeError``.
    """

    __slots__ = ("text",)

    def __init__(self, text: bytes) -> None:
        self.text = text


def int_array(arr: np.ndarray):
    """``arr`` (1-D or 2-D integers) as a response value.

    Its JSON text is written by the compiled formatter
    (:func:`repro.utils.native.format_ints`), or, without the kernels,
    the value is ``arr.tolist()``: the message encodes to the same
    bytes either way.
    """
    text = native.format_ints(arr)
    return arr.tolist() if text is None else _Fragment(text)


#: ``json.dumps(obj, separators=(",", ":"))``, without building an
#: encoder per call.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


def _splice(obj: dict) -> list[bytes]:
    """``obj``'s JSON body in pieces, each fragment's text in place of
    its value.  Each run of other items goes through ``json.dumps``
    together with the next fragment's key, so keys and order come out
    as ``json.dumps`` writes them."""
    parts: list[bytes] = []
    run: dict = {}
    for key, value in obj.items():
        if type(value) is not _Fragment:
            run[key] = value
            continue
        run[key] = 0
        text = _dumps(run)  # '{...,"key":0}'
        parts.append((("," if parts else "{") + text[1:-2]).encode())
        parts.append(value.text)
        run = {}
    if run:
        parts.append((("," if parts else "{") + _dumps(run)[1:-1]).encode())
    parts.append(b"}")
    return parts


def encode_message(obj: dict) -> bytes:
    """One wire frame (header + JSON body) for ``obj``.

    Values made by :func:`int_array` are spliced in as encoded; the
    bytes are those of ``json.dumps`` with each array as a list.
    """
    if any(type(value) is _Fragment for value in obj.values()):
        parts = _splice(obj)
    else:
        parts = [_dumps(obj).encode("utf-8")]
    length = sum(map(len, parts))
    too_large = frame_too_large(length)
    if too_large:
        raise ProtocolError(too_large)
    return b"".join([_HEADER.pack(length), *parts])


def frame_too_large(length: int) -> str | None:
    """Why a frame body of ``length`` bytes may not be sent, naming its
    size and the cap, or ``None`` when it fits."""
    if length <= MAX_MESSAGE_BYTES:
        return None
    return (f"message of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte frame cap")


#: A request id given as its JSON text (``bytes``), as
#: :func:`parse_requests` reads it: responses carry it as written.
encoded = _Fragment


def id_text(req_id) -> bytes:
    """The JSON text of a request id, as :func:`encode_message` writes it."""
    if type(req_id) is _Fragment:
        return req_id.text
    return (int.__repr__(req_id) if type(req_id) is int
            else _dumps(req_id)).encode()


def sweep_frames(rows: np.ndarray,
                 segments) -> tuple[bytes | memoryview, list[int]]:
    """The response frames of one sweep batch, back to back.

    ``rows`` holds the batch's distance rows by original ID.  Each
    segment is ``(records, data, targets, lo, hi, lane)``: intake
    records ``lo`` to ``hi`` (see :func:`parse_requests`) of the read
    ``data``, whose targets are ``targets``, answered from
    ``rows[lane]`` onwards, one row each.  A record's payload is
    ``{"dist": row}`` for ``tree``, ``{"dist": row[targets]}`` (repeats
    kept) for ``one_to_many``, and ``{"vertices":
    np.flatnonzero(row <= budget), "count": ...}`` for ``isochrone``;
    its id is its text in ``data``.  Returns the frames as one
    bytes-like object and the end of each segment's frames.  With the
    kernels one native call writes them all
    (:func:`repro.utils.native.answer_frames`; the view is valid until
    the thread's next batch); without, each is :func:`encode_message`
    of its payload with lists: the bytes are the same.  Frame sizes
    are not checked (:func:`frame_too_large`).
    """
    made = native.answer_frames(rows, segments)
    if made is not None:
        return made
    frames, ends, end = [], [], 0
    for records, data, targets, lo, hi, lane in segments:
        for i in range(lo, hi):
            _, _, code, id_start, id_end, _, a, b, _ = records[
                RECORD * i:RECORD * (i + 1)]
            row = rows[lane + i - lo]
            if code == 2:
                vertices = np.flatnonzero(row <= a)
                payload = {"vertices": vertices.tolist(),
                           "count": int(vertices.size)}
            else:
                payload = {"dist": (row if code == 0 else
                                    row[np.asarray(targets[a:b])]).tolist()}
            # ok_response's key order: the id, "ok", then the payload.
            body = b'{"id":%s,"ok":true,%s' % (
                data[id_start:id_end], _dumps(payload)[1:].encode())
            frames += (_HEADER.pack(len(body)), body)
            end += _HEADER.size + len(body)
        ends.append(end)
    return b"".join(frames), ends


#: Fields of one intake record, most records one parse returns, and a
#: record's ``timeout_ms`` when the request has none or ``null``.
RECORD = native.RECORD
INTAKE_RECORDS = native.INTAKE_RECORDS
TIMEOUT_UNSET = native.TIMEOUT_UNSET
TIMEOUT_NULL = native.TIMEOUT_NULL


def parse_requests(data: bytes, start: int,
                   n: int) -> tuple[array, int, array | None]:
    """The whole frames of ``data[start:]`` as intake records, in one
    call (:func:`repro.utils.native.parse_requests`, which also reads
    the sweep requests of its subset, over vertex count ``n``).

    Without the kernels every frame is declined (op ``-1``), so each
    body goes through :func:`decode_body`.  Reading stops at a frame
    that is not whole or whose length is over the cap, or after
    :data:`INTAKE_RECORDS` frames.  Returns the records, where the
    frames end, and the sweep requests' targets.  Records and targets
    are ``array("q")``.
    """
    made = native.parse_requests(data, start, n, MAX_MESSAGE_BYTES)
    if made is not None:
        return made
    records = array("q")
    end = len(data)
    while end - start >= HEADER_BYTES and len(records) < RECORD * INTAKE_RECORDS:
        (length,) = _HEADER.unpack_from(data, start)
        body = start + HEADER_BYTES
        if length > MAX_MESSAGE_BYTES or end - body < length:
            break
        records.extend((body, body + length, -1, 0, 0, 0, 0, 0, 0))
        start = body + length
    return records, start, None


def frame_length(data: bytes, start: int) -> int | None:
    """The body length the frame at ``data[start:]`` announces (``None``
    while its header is not whole); raises :class:`ProtocolError` when
    it is over the cap."""
    if len(data) - start < HEADER_BYTES:
        return None
    (length,) = _HEADER.unpack_from(data, start)
    _check_length(length)
    return length


def decode_body(body: bytes) -> dict:
    """Parse one frame body; a non-object payload is a protocol error."""
    try:
        obj = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError("frame body must be a JSON object")
    return obj


def _check_length(length: int) -> None:
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap "
            f"{MAX_MESSAGE_BYTES}); closing"
        )


# -- asyncio side (server) ---------------------------------------------------


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Next message from ``reader``; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid-header") from exc
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_body(body)


async def write_message(writer: asyncio.StreamWriter, obj: dict) -> None:
    """Send one message and wait for the transport buffer to drain."""
    writer.write(encode_message(obj))
    await writer.drain()


# -- blocking side (client) --------------------------------------------------


def send_message(sock: socket.socket, obj: dict) -> None:
    """Send one message over a blocking socket."""
    sock.sendall(encode_message(obj))


def _recv_exactly(sock: socket.socket, count: int) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None  # clean EOF on a frame boundary
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict | None:
    """Next message from a blocking socket; ``None`` on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    _check_length(length)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return decode_body(body)


# -- response envelopes ------------------------------------------------------


def ok_response(req_id, **payload) -> dict:
    return {"id": req_id, "ok": True, **payload}


def error_response(req_id, code: int, message: str) -> dict:
    return {"id": req_id, "ok": False,
            "error": {"code": int(code), "message": str(message)}}


# -- op registry -------------------------------------------------------------
#
# One declarative table describes every operation the protocol knows:
# its kind (how it is admitted and routed), its request fields (how it
# is validated), and its handler binding (which PhastService method
# answers it).  The service's dispatch, the router's forwarding sets,
# the client's field normalization, and the ``health``/``info``
# feature-detection payloads are all derived from this table — adding
# an op is one row, not five hand-synchronized edits.


class RequestValidationError(ValueError):
    """A request failed the registry's declarative validation (400)."""


@dataclass(frozen=True)
class Param:
    """One request field of an op.

    ``type`` is one of:

    ``vertex``
        An integer vertex id in ``[0, n)``.
    ``vertex_list``
        A non-empty list of vertex ids in ``[0, n)``.
    ``nonneg_int``
        An integer ``>= 0``.
    ``int_list``
        A non-empty list of integers ``>= 0`` (metric weights).
    ``bool``
        A JSON boolean.
    ``str``
        A string.
    ``number_or_null``
        A number or ``null`` (deadlines).
    """

    name: str
    type: str
    required: bool = True
    default: object = None
    #: Other spellings clients normalize onto this field (the unified
    #: plural `sources`/`targets`).
    aliases: tuple = ()


@dataclass(frozen=True)
class OpSpec:
    """One operation: name, kind, request schema, handler binding.

    ``kind`` drives admission and routing:

    ``work``
        Shortest-path work.  Passes admission control on the server;
        the router forwards it to one replica (with failover).
    ``admin``
        Read-only introspection.  Answered even while draining;
        answered at the router (or proxied) without admission.
    ``control``
        Mutates serving state (``swap_metric``).  Runs on the server's
        exclusive thread, in arrival order with matrices, while sweeps
        go on on the old metric; the router broadcasts it to every
        replica with rolling semantics.
    """

    name: str
    kind: str
    handler: str
    summary: str = ""
    params: tuple = field(default_factory=tuple)


_TIMEOUT = Param("timeout_ms", "number_or_null", required=False,
                 default="unset")

OPS: tuple[OpSpec, ...] = (
    OpSpec(
        "query", "work", "_run_query",
        "point-to-point distance via the bidirectional CH search",
        params=(
            Param("source", "vertex", aliases=("sources",)),
            Param("target", "vertex", aliases=("targets",)),
            Param("stall", "bool", required=False, default=False),
            _TIMEOUT,
        ),
    ),
    OpSpec(
        "tree", "work", "_run_sweep",
        "full shortest path tree from one source",
        params=(
            Param("source", "vertex", aliases=("sources",)),
            _TIMEOUT,
        ),
    ),
    OpSpec(
        "one_to_many", "work", "_run_sweep",
        "distances from one source to a target list",
        params=(
            Param("source", "vertex", aliases=("sources",)),
            Param("targets", "vertex_list"),
            _TIMEOUT,
        ),
    ),
    OpSpec(
        "isochrone", "work", "_run_sweep",
        "vertices within a budget of one source",
        params=(
            Param("source", "vertex", aliases=("sources",)),
            Param("budget", "nonneg_int"),
            _TIMEOUT,
        ),
    ),
    OpSpec(
        "matrix", "work", "_run_matrix",
        "k x m travel-time matrix over a cached restricted selection",
        params=(
            Param("sources", "vertex_list"),
            Param("targets", "vertex_list"),
            _TIMEOUT,
        ),
    ),
    OpSpec(
        "swap_metric", "control", "_run_swap",
        "hot-swap edge weights over the resident topology",
        params=(
            Param("weights", "int_list", required=False),
            Param("path", "str", required=False),
            _TIMEOUT,
        ),
    ),
    OpSpec("ping", "admin", "_admin_ping", "liveness"),
    OpSpec("info", "admin", "_admin_info", "instance facts"),
    OpSpec("metrics", "admin", "_admin_metrics", "serving statistics"),
    OpSpec("health", "admin", "_admin_health", "readiness"),
)

OPS_BY_NAME: dict[str, OpSpec] = {spec.name: spec for spec in OPS}
WORK_OPS: tuple[str, ...] = tuple(s.name for s in OPS if s.kind == "work")
ADMIN_OPS: tuple[str, ...] = tuple(s.name for s in OPS if s.kind == "admin")
CONTROL_OPS: tuple[str, ...] = tuple(
    s.name for s in OPS if s.kind == "control"
)


def _validate_vertex(name: str, value, n: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestValidationError(f"{name!r} must be an integer")
    if not 0 <= value < n:
        raise RequestValidationError(
            f"{name!r} must be a vertex id in [0, {n}) (got {value})"
        )
    return value


def _validate_param(param: Param, value, n: int):
    name = param.name
    kind = param.type
    if kind == "vertex":
        return _validate_vertex(name, value, n)
    if kind == "vertex_list":
        if not isinstance(value, list) or not value:
            raise RequestValidationError(
                f"{name!r} must be a non-empty list of vertex ids in [0, {n})"
            )
        for v in value:
            if type(v) is not int or not 0 <= v < n:
                _validate_vertex(name, v, n)  # raises for a bad entry
        return value
    if kind == "nonneg_int":
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise RequestValidationError(f"{name!r} must be an integer >= 0")
        return value
    if kind == "int_list":
        if (not isinstance(value, list) or not value
                or not all(isinstance(v, int) and not isinstance(v, bool)
                           and v >= 0 for v in value)):
            raise RequestValidationError(
                f"{name!r} must be a non-empty list of integers >= 0"
            )
        return value
    if kind == "bool":
        if not isinstance(value, bool):
            raise RequestValidationError(f"{name!r} must be a boolean")
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise RequestValidationError(f"{name!r} must be a string")
        return value
    if kind == "number_or_null":
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RequestValidationError(
                f"{name!r} must be a number or null"
            )
        return value
    raise AssertionError(f"unknown param type {kind!r}")


def validate_request(spec: OpSpec, msg: dict, n: int) -> dict:
    """Parse one request against ``spec``; raises on the first bad field.

    Returns the validated fields by name.  Absent optional fields get
    their declared defaults (``timeout_ms`` defaults to the sentinel
    ``"unset"`` so the server can distinguish "no field" from an
    explicit ``null``).
    """
    fields: dict = {}
    for param in spec.params:
        if param.name in msg:
            fields[param.name] = _validate_param(param, msg[param.name], n)
        elif param.required:
            raise RequestValidationError(f"missing required field {param.name!r}")
        else:
            fields[param.name] = param.default
    return fields
