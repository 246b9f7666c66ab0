"""Tests for the shared frame server (`repro.server.listener`).

`PhastService` and `PhastRouter` run one connection loop and one drain,
so every case here runs against both: a thread-hosted service, and a
router in front of one thread-hosted replica.  The frames are written
and read on raw sockets, so pipelining and hostile input reach the
loop exactly as sent.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import PhastEngine
from repro.router import PhastRouter, RouterConfig, route_in_thread
from repro.server import PhastService, ServerConfig, serve_in_thread
from repro.server import protocol
from repro.server.listener import Connection
from repro.utils import native


@pytest.fixture(scope="module")
def reference(road, road_ch):
    engine = PhastEngine(road_ch)
    return {s: engine.tree(s).dist for s in (0, 7, 33, 150, 211, 399)}


@pytest.fixture(params=["service", "router"])
def front(request, road_ch):
    """The handle clients talk to; every server is stopped afterwards."""
    service = PhastService(
        road_ch, config=ServerConfig(batch_max=4, max_wait_ms=1.0,
                                     max_pending=64),
    )
    handles = [serve_in_thread(service)]
    try:
        if request.param == "router":
            router = PhastRouter(RouterConfig(probe_interval_ms=100.0))
            router.add_replica(handles[0].host, handles[0].port)
            handles.insert(0, route_in_thread(router))
        yield handles[0]
    finally:
        for handle in handles:
            handle.stop()


def _connect(handle) -> socket.socket:
    sock = socket.create_connection((handle.host, handle.port), timeout=10)
    sock.settimeout(10)
    return sock


def test_oversized_frame_drops_only_its_connection(front):
    with _connect(front) as good, _connect(front) as bad:
        protocol.send_message(good, {"id": 1, "op": "ping"})
        assert protocol.recv_message(good)["pong"] is True
        bad.sendall(struct.pack(">I", protocol.MAX_MESSAGE_BYTES + 1))
        assert bad.recv(1) == b""
        protocol.send_message(good, {"id": 2, "op": "ping"})
        resp = protocol.recv_message(good)
        assert resp["id"] == 2 and resp["pong"] is True


def test_pipelined_frames_are_each_answered_under_their_id(front, reference):
    sources = list(reference)
    frames = [{"id": f"t{s}", "op": "tree", "source": s} for s in sources]
    frames.append({"id": "p", "op": "ping"})
    with _connect(front) as sock:
        sock.sendall(b"".join(protocol.encode_message(f) for f in frames))
        answers = {}
        for _ in frames:
            resp = protocol.recv_message(sock)
            assert resp["ok"], resp
            answers[resp["id"]] = resp
    assert sorted(answers) == sorted(f["id"] for f in frames)
    assert answers["p"]["pong"] is True
    for s in sources:
        assert np.array_equal(answers[f"t{s}"]["dist"], reference[s])


def test_client_gone_mid_request_does_not_stall_stop(front):
    sock = _connect(front)
    frames = [{"id": i, "op": "tree", "source": i} for i in range(16)]
    sock.sendall(b"".join(protocol.encode_message(f) for f in frames))
    # One answer back means the frames were decoded; the rest of the
    # batches are still in flight when the client goes away.
    assert protocol.recv_message(sock)["ok"]
    sock.close()
    front.stop(timeout=20.0)
    assert not front.thread.is_alive()


@pytest.mark.parametrize("backend", ["kernel", "fallback"])
def test_answer_over_the_frame_cap_is_a_500(front, backend, monkeypatch):
    """An answer over the frame cap comes back as a 500 naming its size
    and the cap, on the batch's frame path (``tree`` between two small
    ``one_to_many`` answers of the same batch) and on a dict response
    (``matrix``); the connection stays usable."""
    if backend == "fallback":
        monkeypatch.setattr(native, "_lib", False)
    elif not native.native_available():
        pytest.skip("no compiled kernels here")
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 1500)
    frames = [
        {"id": 1, "op": "one_to_many", "source": 7, "targets": [0, 33]},
        {"id": 2, "op": "tree", "source": 0},
        {"id": 3, "op": "one_to_many", "source": 7, "targets": [150]},
        {"id": 4, "op": "matrix", "sources": list(range(20)),
         "targets": list(range(100))},
    ]
    with _connect(front) as sock:
        sock.sendall(b"".join(protocol.encode_message(f) for f in frames))
        answers = {}
        for _ in frames:
            resp = protocol.recv_message(sock)
            answers[resp["id"]] = resp
        protocol.send_message(sock, {"id": 5, "op": "ping"})
        assert protocol.recv_message(sock)["pong"] is True
    assert answers[1]["ok"] and answers[3]["ok"]
    for req_id in (2, 4):
        error = answers[req_id]["error"]
        assert error["code"] == protocol.INTERNAL
        assert "bytes exceeds the 1500-byte frame cap" in error["message"]


def test_router_connection_answers_over_the_frame_cap_with_a_500(
        monkeypatch):
    """The router writes its responses through the same Connection."""
    monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 1500)
    written = []
    transport = SimpleNamespace(is_closing=lambda: False,
                                write=written.append)
    conn = Connection(transport, PhastRouter(RouterConfig()))
    response = protocol.ok_response(5, dist=list(range(1000)))
    conn.send(response)
    size = len(json.dumps(response, separators=(",", ":")))
    assert [protocol.decode_body(frame[4:]) for frame in written] == [{
        "id": 5, "ok": False, "error": {
            "code": protocol.INTERNAL,
            "message": f"message of {size} bytes exceeds the 1500-byte "
                       f"frame cap"}}]


# ---------------------------------------------------------------------------
# Reads split anywhere


#: Pipelined frames of every kind: sweep requests the intake reads in C
#: (reordered keys, whitespace), ones it declines to the decode path
#: (float timeout, escaped op, a duplicate key, an alias), errors, and
#: an admin op.
MIXED = [
    b'{"id":1,"op":"tree","source":7}',
    b' {"source" : 33 ,"op":"one_to_many", "targets":[0, 7,7 ,399],'
    b'"id":"a b"} ',
    b'{"op":"isochrone","budget":900,"id":3,"source":150,"timeout_ms":null}',
    b'{"id":4,"op":"tree","source":0,"timeout_ms":2500.0}',
    b'{"id":"\\u00e9","op":"tr\\u0065e","source":211}',
    b'{"id":6,"op":"isochrone","source":1,"source":2,"budget":0}',
    b'{"id":7,"op":"tree","sources":3}',
    b'{"id":8,"op":"tree","source":400}',
    b'{"id":9,"op":"fly"}',
    b'{"id":10,"op":"ping"}',
]


def _recv_frame(sock: socket.socket) -> bytes:
    header = sock.recv(4, socket.MSG_WAITALL)
    (length,) = struct.unpack(">I", header)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        assert chunk, "server closed the connection"
        body += chunk
    return header + body


def _exchange(sock: socket.socket, parts: list[bytes]) -> list[bytes]:
    """Send ``parts`` as separate writes; the response frames, sorted
    (answers to one read may leave in any order)."""
    for part in parts:
        sock.sendall(part)
        if len(parts) > 1:
            time.sleep(0.0005)  # each part its own read
    return sorted(_recv_frame(sock) for _ in MIXED)


def test_a_stream_split_anywhere_gets_the_same_frames(front, reference):
    """The same pipelined stream sent whole, one byte per write, and
    split in two at every byte boundary gets the same response bytes."""
    stream = b"".join(struct.pack(">I", len(b)) + b for b in MIXED)
    with _connect(front) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        whole = _exchange(sock, [stream])
        assert len(whole) == len(MIXED)
        assert _exchange(sock, [stream[i:i + 1]
                                for i in range(len(stream))]) == whole
        for cut in range(1, len(stream)):
            assert _exchange(sock, [stream[:cut], stream[cut:]]) == whole, cut
    answers = {protocol.decode_body(f[4:])["id"]: protocol.decode_body(f[4:])
               for f in whole}
    assert [answers[i]["ok"] for i in (1, "a b", 3, 4, "é", 6, 7, 8, 9, 10)] \
        == [True] * 6 + [False] * 3 + [True]
    assert np.array_equal(answers["é"]["dist"], reference[211])
    assert answers["a b"]["dist"] == reference[33][[0, 7, 7, 399]].tolist()


def test_more_frames_in_a_read_than_one_parse_takes_are_all_answered(
        front):
    count = protocol.INTAKE_RECORDS + 100
    with _connect(front) as sock:
        sock.sendall(b"".join(protocol.encode_message(
            {"id": i, "op": "ping"}) for i in range(count)))
        ids = sorted(protocol.recv_message(sock)["id"] for _ in range(count))
    assert ids == list(range(count))


# ---------------------------------------------------------------------------
# Back-pressure


def test_reading_pauses_above_the_high_water_mark(front, reference,
                                                  monkeypatch):
    """Once the answers a client does not read fill the transport's
    buffer past its high-water mark, the connection stops reading; it
    reads again once the client has drained them, and every answer
    arrives whole."""
    events = []
    pause_writing, resume_writing = (Connection.pause_writing,
                                     Connection.resume_writing)

    def pause(conn):
        pause_writing(conn)
        events.append(("pause", conn.transport.is_reading()))

    def resume(conn):
        resume_writing(conn)
        events.append(("resume", conn.transport.is_reading()))

    monkeypatch.setattr(Connection, "pause_writing", pause)
    monkeypatch.setattr(Connection, "resume_writing", resume)
    sources = [s for s in reference for _ in range(10)]  # < max_pending
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(30)
    with sock:
        sock.connect((front.host, front.port))
        protocol.send_message(sock, {"id": -1, "op": "ping"})
        assert protocol.recv_message(sock)["pong"] is True
        server = front.server
        (conn,) = server._conns

        def shrink():
            conn.transport.set_write_buffer_limits(high=4096)
            conn.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)

        front.loop.call_soon_threadsafe(shrink)
        sock.sendall(b"".join(protocol.encode_message(
            {"id": i, "op": "tree", "source": s})
            for i, s in enumerate(sources)))
        deadline = time.monotonic() + 20
        while not events and time.monotonic() < deadline:
            time.sleep(0.01)
        assert events[:1] == [("pause", False)]
        # Paused: a ping sent now is not read until the answers drain.
        pings = server.metrics.requests.get("ping", 0)
        protocol.send_message(sock, {"id": "late", "op": "ping"})
        time.sleep(0.2)
        assert server.metrics.requests.get("ping", 0) == pings
        answers = {}
        for _ in range(len(sources) + 1):
            resp = protocol.recv_message(sock)
            answers[resp["id"]] = resp
    assert ("resume", True) in events
    assert answers.pop("late")["pong"] is True
    for i, s in enumerate(sources):
        assert np.array_equal(answers[i]["dist"], reference[s])
