"""The frame server shared by ``repro serve`` and ``repro route``.

:class:`FrameServer` holds the connection and lifecycle rules that
:class:`~repro.server.service.PhastService` and
:class:`~repro.router.service.PhastRouter` both follow: one task per
decoded frame, a per-connection write lock, a dropped connection
cancels its pending tasks, a malformed or oversized frame closes only
its own connection, and one drain order (close the listener, await
in-flight tasks, release resources, close lingering writers, set
drained).  :func:`run_in_thread` hosts either on a private event loop
in a daemon thread (tests, benchmarks, notebooks).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import signal
import threading

from . import protocol

__all__ = ["FrameServer", "FrameHandle", "run_in_thread"]


class FrameServer:
    """One listening socket, one task per frame, one drain.

    ``config`` supplies the default ``host`` and ``port``; ``metrics``
    counts requests and errors.  A subclass answers a well-formed
    request in ``_process(req_id, op, msg)`` and supplies the steps
    that differ: ``_prepare()`` before the port is bound, ``_monitor()``
    while serving (cancelled when the drain begins), and ``_release()``
    once every in-flight request has finished.
    """

    def __init__(self, config, metrics) -> None:
        self.config = config
        self.metrics = metrics
        self.host = config.host
        self.port = config.port
        self._server: asyncio.base_events.Server | None = None
        self._monitor_task: asyncio.Task | None = None
        self._tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._drain_task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, host: str | None = None,
                    port: int | None = None) -> None:
        """Prepare, bind and start serving (returns once listening)."""
        await self._prepare()
        self._server = await asyncio.start_server(
            self._handle_connection,
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

    def _begin_drain(self) -> None:
        """First drain step, before the listener closes (optional)."""

    async def _drain_impl(self) -> None:
        self._draining = True
        self._begin_drain()
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
        # they are refused while draining, so this loop terminates.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        await self._release()
        for writer in list(self._writers):
            writer.close()
        self._drained.set()

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

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        conn_tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    msg = await protocol.read_message(reader)
                except (protocol.ProtocolError, ConnectionError):
                    break
                if msg is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._respond(msg, writer, write_lock)
                )
                for registry in (conn_tasks, self._tasks):
                    registry.add(task)
                    task.add_done_callback(registry.discard)
        finally:
            # A dropped connection cancels its pending requests, so
            # their batch lanes are freed instead of computed for
            # nobody.
            for task in list(conn_tasks):
                task.cancel()
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, msg: dict, writer: asyncio.StreamWriter,
                       write_lock: asyncio.Lock) -> None:
        req_id, op = msg.get("id"), msg.get("op")
        if isinstance(op, str):
            self.metrics.record_request(op)
            response = await self._process(req_id, op, msg)
        else:
            response = self._error(req_id, protocol.BAD_REQUEST,
                                   "missing 'op'")
        try:
            async with write_lock:
                await protocol.write_message(writer, response)
        except (ConnectionError, RuntimeError, OSError):
            pass  # peer went away; nothing to tell it

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
