"""The load generator's side of the wire protocol.

Frames are a 4-byte big-endian length and a JSON body, as in
``repro.server.protocol``; this module speaks them directly so the
generator stays a thin, separately measurable client.  Responses that
are not sampled for checking are not JSON-decoded: the request id and
the ``ok`` flag are read from the body prefix the server writes
(``{"id":7,"ok":true,...``), which keeps the generator's own CPU share
small on full-tree responses.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass, field

__all__ = ["WireConn", "PhaseResult", "closed_loop"]

_HEADER = struct.Struct(">I")
_OK = b'"ok":true'


class WireConn:
    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._next_id = 0

    def send(self, req: dict) -> int:
        self._next_id += 1
        body = json.dumps({"id": self._next_id, **req},
                          separators=(",", ":")).encode()
        self.sock.sendall(_HEADER.pack(len(body)) + body)
        return self._next_id

    def _exactly(self, count: int) -> bytes:
        buf = bytearray()
        while len(buf) < count:
            chunk = self.sock.recv(count - len(buf))
            if not chunk:
                raise ConnectionError("server closed the connection")
            buf += chunk
        return bytes(buf)

    def recv(self) -> tuple[int, bool, bytes]:
        """Next response as ``(id, ok, body)``."""
        (length,) = _HEADER.unpack(self._exactly(_HEADER.size))
        body = self._exactly(length)
        if body.startswith(b'{"id":'):
            comma = body.index(b",", 6)
            return (int(body[6:comma]),
                    body.startswith(_OK, comma + 1), body)
        msg = json.loads(body)
        return int(msg["id"]), bool(msg.get("ok")), body

    def call(self, req: dict) -> dict:
        """One blocking round trip, fully decoded."""
        rid = self.send(req)
        got, _ok, body = self.recv()
        if got != rid:
            raise ConnectionError(f"response id {got} != request id {rid}")
        return json.loads(body)

    def close(self) -> None:
        self.sock.close()


@dataclass
class PhaseResult:
    """What one closed-loop phase saw."""

    latencies_s: list = field(default_factory=list)
    #: receive time of each latency sample
    recv_t: list = field(default_factory=list)
    sent: int = 0
    completed_in_window: int = 0
    errors: dict = field(default_factory=dict)
    #: (request, decoded response, send time, receive time)
    sampled: list = field(default_factory=list)
    #: receive -> next send gaps: how late the generator itself ran
    lateness_s: list = field(default_factory=list)
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def failed(self) -> int:
        return sum(self.errors.values())


def closed_loop(conn: WireConn, stream, *, window: int, seconds: float,
                sample=lambda i: False, max_samples: int = 24,
                decode: bool = True, tracer=None, log=None) -> PhaseResult:
    """Keep ``window`` requests in flight for ``seconds``, then drain.

    A closed loop: the next request leaves only when a response
    arrives, so a slow server receives less load.  Latency is send to
    receive.  Only responses received before the deadline count as
    completed in the window; the drained tail still counts as
    attempted and is checked for errors.
    """
    res = PhaseResult()
    inflight: dict[int, tuple] = {}

    def send_next() -> None:
        req = stream.next()
        index = res.sent
        res.sent += 1
        span = (tracer.span("client." + req["op"])
                if tracer is not None else None)
        if span is not None:
            span.__enter__()
        t = time.perf_counter()
        rid = conn.send(req)
        inflight[rid] = (req, t, sample(index), span)

    res.t_start = time.perf_counter()
    deadline = res.t_start + seconds
    if log is not None and not log.rows:
        log.start(res.t_start)
    for _ in range(window):
        send_next()
    while inflight:
        rid, ok, body = conn.recv()
        now = time.perf_counter()
        req, t_send, keep, span = inflight.pop(rid)
        if span is not None:
            span.__exit__(None, None, None)
        if now <= deadline:
            res.completed_in_window += 1
            res.latencies_s.append(now - t_send)
            res.recv_t.append(now)
            if log is not None:
                log.mark(now)
        if not ok:
            code = str(json.loads(body).get("error", {}).get("code"))
            res.errors[code] = res.errors.get(code, 0) + 1
        elif keep and len(res.sampled) < max_samples:
            res.sampled.append((req, json.loads(body) if decode else body,
                                t_send, now))
        if now < deadline:
            send_next()
            res.lateness_s.append(time.perf_counter() - now)
    res.t_end = deadline
    return res
