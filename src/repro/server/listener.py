"""The frame server shared by ``repro serve`` and ``repro route``.

:class:`FrameServer` holds the connection and lifecycle rules that
:class:`~repro.server.service.PhastService` and
:class:`~repro.router.service.PhastRouter` both follow.  Each
connection is an :class:`asyncio.Protocol` (a :class:`Connection`):
every read is split into whole frames in one pass
(:func:`protocol.parse_requests`, one native call), and the frames are
answered in order, all within that read's callback.  The subclass's
``_take`` gets each parse's records whole: the sweep requests the
intake read stay records, never dicts; any other frame is decoded and
handed to ``_answer``.  What is left of a frame waits in the
connection's buffer until the rest arrives.  Every response goes out whole through the
transport, so answers finishing in any order never interleave and need
no lock; while the transport's write buffer is above its high-water
mark the connection stops reading.  A dropped connection cancels the
answers it is still owed, a malformed or oversized frame closes only
its own connection, and there is one drain order (close the listener,
wait for every owed answer, release resources, close lingering
connections, set drained).
:func:`run_in_thread` hosts either on a private event loop in a daemon
thread (tests, benchmarks, notebooks).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import signal
import threading

from . import protocol

__all__ = ["Connection", "FrameServer", "FrameHandle", "run_in_thread"]

class Connection(asyncio.Protocol):
    """One client connection: reads frames, writes whole frames, tracks
    owed answers.

    ``owed`` holds what the connection is owed answers by — anything
    with a ``cancel()``, owing one answer or, for a chunk of sweep
    requests, several — between :meth:`owe` and the :meth:`settle` of
    its last answer, so a dropped connection can cancel them; the
    server counts every owed answer, so the drain can wait for the
    last one.
    """

    __slots__ = ("transport", "owed", "_server", "_pending", "_need")

    def __init__(self, transport: asyncio.Transport | None,
                 server: "FrameServer") -> None:
        self.transport = transport
        self.owed: set = set()
        self._server = server
        # The start of a frame not yet whole, and the bytes the next
        # whole frame needs (header included).
        self._pending = bytearray()
        self._need = 0

    def owe(self, answer, count: int = 1) -> None:
        self.owed.add(answer)
        self._server._owe(count)

    def settle(self, answer, count: int = 1, last: bool = True) -> None:
        """``count`` of the answers owed by ``answer`` are finished;
        ``last`` when none of its answers is left."""
        if last:
            self.owed.discard(answer)
        self._server._settle(count)

    def send(self, response: dict) -> None:
        """Write one response frame (event-loop thread only).

        A response over the frame cap is answered with a 500 error
        naming its size and the cap, so the client is not left waiting.
        """
        try:
            frame = protocol.encode_message(response)
        except protocol.ProtocolError as exc:
            frame = protocol.encode_message(self._server._error(
                response.get("id"), protocol.INTERNAL, str(exc)))
        self.write(frame)

    def write(self, frames) -> None:
        """Write whole encoded frames (event-loop thread only)."""
        if self.transport.is_closing():
            return  # peer went away; nothing to tell it
        try:
            self.transport.write(frames)
        except (ConnectionError, RuntimeError, OSError):
            pass  # peer went away

    # -- asyncio.Protocol --------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._server._conns.add(self)

    def data_received(self, data: bytes) -> None:
        pending = self._pending
        if pending:
            pending += data
            if len(pending) < self._need:
                return  # the frame is still not whole
            data = bytes(pending)
            pending.clear()
        end, length = self._server._intake(self, data)
        if end < 0:
            self.transport.close()  # a malformed or oversized frame
        elif end < len(data):
            pending += memoryview(data)[end:]
            self._need = (protocol.HEADER_BYTES if length is None
                          else protocol.HEADER_BYTES + length)

    def connection_lost(self, exc: Exception | None) -> None:
        # A dropped connection cancels the answers it is owed, so their
        # batch lanes and admission slots are freed instead of computed
        # for nobody.
        for answer in list(self.owed):
            answer.cancel()
        self._server._conns.discard(self)

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()


class FrameServer:
    """One listening socket, one answer per frame, one drain.

    ``config`` supplies the default ``host`` and ``port``; ``metrics``
    counts requests and errors.  A subclass answers a well-formed
    request in ``_answer(req_id, op, msg, conn)``: it either sends the
    response at once or registers something with ``conn.owe`` that
    sends it later and then calls ``conn.settle``.  A subclass that
    sets ``intake_vertices`` also answers, in ``_take``, the sweep
    requests the intake read, from their records.  It supplies the
    steps that differ: ``_prepare()`` before the port is bound,
    ``_monitor()`` while serving (optional; cancelled when the drain
    begins), and ``_release()`` once every owed answer has finished.
    """

    #: Vertex count the intake reads sweep requests over; 0 declines
    #: every frame to ``_answer``.
    intake_vertices = 0

    def __init__(self, config, metrics) -> None:
        self.config = config
        self.metrics = metrics
        self.host = config.host
        self.port = config.port
        self._server: asyncio.base_events.Server | None = None
        self._monitor_task: asyncio.Task | None = None
        self._owed = 0
        self._settled = asyncio.Event()
        self._settled.set()
        self._conns: set[Connection] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._drain_task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, host: str | None = None,
                    port: int | None = None) -> None:
        """Prepare, bind and start serving (returns once listening)."""
        await self._prepare()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: Connection(None, self),
            host if host is not None else self.config.host,
            port if port is not None else self.config.port,
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._monitor_task = asyncio.get_running_loop().create_task(
            self._monitor()
        )

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, refuse the rest."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain_impl()
            )
        await asyncio.shield(self._drain_task)

    async def _monitor(self) -> None:
        """Background work while serving (optional)."""

    async def _drain_impl(self) -> None:
        self._draining = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # New frames can still arrive briefly on open connections, but
        # they are refused while draining, so no new answer is owed.
        await self._settled.wait()
        await self._release()
        for conn in list(self._conns):
            conn.transport.close()
        self._drained.set()

    def _owe(self, count: int = 1) -> None:
        if not self._owed:
            self._settled.clear()
        self._owed += count

    def _settle(self, count: int = 1) -> None:
        self._owed -= count
        if not self._owed:
            self._settled.set()

    async def wait_drained(self) -> None:
        """Block until :meth:`drain` has completed."""
        await self._drained.wait()

    @property
    def draining(self) -> bool:
        return self._draining

    def drain_on_signals(self) -> None:
        """Drain on SIGINT/SIGTERM (call from the main thread's loop)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(self.drain())
                )
            except (NotImplementedError, RuntimeError):
                pass

    # -- connection handling -----------------------------------------------

    def _intake(self, conn: Connection,
                data: bytes) -> tuple[int, int | None]:
        """Answer every whole frame of ``data``, in order.

        Returns where the whole frames end and the body length the next
        frame announces (``None`` while its header is not whole), or
        ``(-1, None)`` when a frame is malformed or over the cap: the
        connection is then closed.
        """
        start = 0
        while True:
            records, start, targets = protocol.parse_requests(
                data, start, self.intake_vertices)
            if not self._take(conn, data, records, targets):
                return -1, None
            if len(records) < protocol.RECORD * protocol.INTAKE_RECORDS:
                break
        try:
            return start, protocol.frame_length(data, start)
        except protocol.ProtocolError:
            return -1, None

    def _take(self, conn: Connection, data: bytes, records,
              targets) -> bool:
        """Answer one parse's frames in order (see
        :func:`protocol.parse_requests`); False when one is malformed.
        A subclass with ``intake_vertices`` answers the sweep requests
        among them itself."""
        for i in range(0, len(records), protocol.RECORD):
            if not self._frame(conn, data[records[i]:records[i + 1]]):
                return False
        return True

    def _frame(self, conn: Connection, body: bytes) -> bool:
        """Decode one frame's body and answer it; False when it is not
        a JSON object."""
        try:
            msg = protocol.decode_body(body)
        except protocol.ProtocolError:
            return False
        req_id, op = msg.get("id"), msg.get("op")
        if isinstance(op, str):
            self.metrics.record_request(op)
            self._answer(req_id, op, msg, conn)
        else:
            conn.send(self._error(req_id, protocol.BAD_REQUEST,
                                  "missing 'op'"))
        return True

    def _answer(self, req_id, op: str, msg: dict, conn: Connection) -> None:
        raise NotImplementedError

    def _error(self, req_id, code: int, message: str) -> dict:
        self.metrics.record_error(code)
        return protocol.error_response(req_id, code, message)


# ---------------------------------------------------------------------------
# Thread-hosted serving (tests, benchmarks, notebooks)


class FrameHandle:
    """A frame server running on an event loop in another thread."""

    def __init__(self, server: FrameServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self.thread = thread
        self.loop = loop

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the server and join its thread (idempotent)."""
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.server.drain())
            )
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise RuntimeError(f"{self.thread.name} did not drain in time")

    def __enter__(self) -> "FrameHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def run_in_thread(server: FrameServer, handle_cls: type, *, host: str,
                  port: int, start_timeout: float, name: str) -> FrameHandle:
    """Start ``server`` on a fresh event loop in daemon thread ``name``.

    ``port=0`` binds an ephemeral port; read it back from
    ``handle.port``.  The thread exits once the server has drained.
    """
    loop = asyncio.new_event_loop()
    started: concurrent.futures.Future = concurrent.futures.Future()

    async def main() -> None:
        try:
            await server.start(host=host, port=port)
        except Exception as exc:
            started.set_exception(exc)
            return
        started.set_result(None)
        await server.wait_drained()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name=name, daemon=True)
    thread.start()
    if not concurrent.futures.wait([started], start_timeout).done:
        raise RuntimeError(f"{name} failed to start in time")
    if started.exception() is not None:
        raise RuntimeError(f"{name} failed to start: {started.exception()}")
    return handle_cls(server, thread, loop)
