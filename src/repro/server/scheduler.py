"""The dynamic micro-batching scheduler.

PHAST's cost structure makes batching almost free throughput: one
k-source sweep costs roughly ``C(k) = alpha + beta * k`` with
``alpha >> beta`` (the level loop, reduceat plans and memory walk are
paid once; only the lane arithmetic scales with ``k``).  Per-request
service time therefore drops from ``alpha + beta`` to
``alpha / k + beta`` — the identical amortization an inference server
gets from batching GPU forwards, which is why the same scheduling
policy fits:

* the first queued request opens a *batch window*;
* everything queued behind it joins immediately — dispatches are
  serialized, so requests arriving during the previous sweep have
  already piled up (continuous batching);
* the window then yields one event-loop turn at a time, so frames
  the connection handlers already decoded can reach ``submit``, and
  stays open only while each turn brings more sweep-shaped requests
  (tree / one-to-many / isochrone — anything needing one source's
  distance row): it closes on the first turn that brings nothing, at
  ``batch_max`` lanes, or after ``max_wait_ms`` total, whichever
  comes first;
* the batch runs as one multi-source sweep on the pool, off the event
  loop — requests sharing a source share one lane (singleflight-style
  coalescing) — and each request's row is post-processed into its
  response payload while still on the executor thread;
* results fan back out to per-request futures.

No turn of the window waits on a timer (the poller rounds a timed
wait up to whole milliseconds), so a lone request pays one loop turn
of window, not a timed idle gap.  Under heavy load batches
form during the previous sweep, ride toward ``batch_max`` lanes, and
throughput approaches the ``C(k)/k`` bound.  ``batch_max=1`` is
strict dispatch-one — the ablation the server benchmark compares
against.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable

from ..core.supervisor import ChunkQuarantined, PoolBroken

__all__ = ["DeadlineExceeded", "SchedulerStopped", "SweepRequest", "MicroBatcher"]


class DeadlineExceeded(Exception):
    """The request's deadline passed before its batch was dispatched."""


class SchedulerStopped(Exception):
    """The scheduler shut down with this request still queued."""


class SweepRequest:
    """One queued sweep-shaped request.

    ``finalize(row)`` turns the request's distance row into its
    response payload; it runs on the executor thread right after the
    sweep, while the row is hot in cache and before the pool's shared
    output buffer can be reused by the next batch.

    *Exclusive* requests pass ``execute`` instead: a no-argument
    callable returning the payload, run on the executor thread after
    the batch's shared sweep (matrix requests use this — their pool
    call has its own fan-out and doesn't fit a single lane).  Routing
    them through the batcher keeps every pool access on the one
    dispatch thread while they still get deadline checks and ride the
    same admission accounting.
    """

    __slots__ = ("op", "source", "finalize", "future", "enqueued_at",
                 "deadline", "execute")

    def __init__(
        self,
        op: str,
        source: int,
        finalize: Callable | None,
        *,
        deadline: float | None = None,
        execute: Callable | None = None,
    ) -> None:
        if (finalize is None) == (execute is None):
            raise ValueError("exactly one of finalize/execute is required")
        self.op = op
        self.source = int(source)
        self.finalize = finalize
        self.future: asyncio.Future = asyncio.get_running_loop().create_future()
        self.enqueued_at = time.monotonic()
        self.deadline = deadline
        self.execute = execute

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    @property
    def live(self) -> bool:
        """Still awaiting a result (not cancelled by a disconnect)."""
        return not self.future.done()


class _Close:
    pass


_CLOSE = _Close()


class MicroBatcher:
    """Coalesce sweep requests into multi-source dispatches.

    Parameters
    ----------
    sweep_fn:
        ``sweep_fn(sources) -> rows`` computing one distance row per
        source (a :class:`~repro.core.pool.PhastPool` ``trees`` call).
        Runs on ``executor``; dispatches are serialized, so ``sweep_fn``
        never runs concurrently with itself.
    executor:
        Where sweeps (and row post-processing) run.
    batch_max:
        Lane cap per dispatch.
    max_wait_ms:
        Cap on the batch window: the longest the first request of a
        batch may wait for company; ``0`` means no window.
    metrics:
        Optional :class:`~repro.server.metrics.ServerMetrics`.
    """

    def __init__(
        self,
        sweep_fn: Callable,
        *,
        executor,
        batch_max: int = 16,
        max_wait_ms: float = 2.0,
        metrics=None,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.sweep_fn = sweep_fn
        self.executor = executor
        self.batch_max = int(batch_max)
        self.max_wait_ms = float(max_wait_ms)
        self.metrics = metrics
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="phast-microbatcher"
            )

    async def stop(self) -> None:
        """Stop the dispatch loop; queued requests fail fast.

        Call only after request intake has ceased (the service drains
        in-flight work first, so the queue is normally empty here).
        """
        if self._stopped:
            return
        self._stopped = True
        await self._queue.put(_CLOSE)
        if self._task is not None:
            await self._task
            self._task = None

    # -- intake ------------------------------------------------------------

    def submit(self, request: SweepRequest) -> None:
        """Queue one request (event-loop thread only)."""
        if self._stopped:
            raise SchedulerStopped("scheduler is stopped")
        self._queue.put_nowait(request)

    @property
    def depth(self) -> int:
        """Requests queued but not yet claimed by a batch."""
        return self._queue.qsize()

    # -- dispatch loop -----------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        closing = False
        while not closing:
            item = await self._queue.get()
            if item is _CLOSE:
                break
            batch = [item]
            closing = await self._fill_window(batch)
            await self._dispatch(loop, batch)
        # Fail anything that slipped in after the close sentinel.
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if isinstance(item, SweepRequest) and item.live:
                item.future.set_exception(SchedulerStopped("server stopped"))

    async def _fill_window(self, batch: list) -> bool:
        """Fill the batch window; True when _CLOSE was seen.

        Everything already queued joins immediately (requests pile up
        in the queue while the previous sweep runs, so under steady
        load batches form for free — continuous batching).  The
        window then yields one event-loop turn and drains again, for
        as long as each turn brings new arrivals: every frame runs in
        its own task, so a turn lets frames that are already decoded
        reach ``submit``.  The first turn that
        brings nothing closes the window, as do ``batch_max`` lanes
        and ``max_wait_ms`` total.  No turn waits on a timer, so a
        lone request is not held back waiting for company that is not
        on its way.
        """
        deadline = time.monotonic() + self.max_wait_ms / 1e3
        while True:
            while len(batch) < self.batch_max and not self._queue.empty():
                item = self._queue.get_nowait()
                if item is _CLOSE:
                    return True
                batch.append(item)
            if len(batch) >= self.batch_max or time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0)
            if self._queue.empty():
                return False  # the turn brought nobody: dispatch now

    async def _dispatch(self, loop, batch: list) -> None:
        now = time.monotonic()
        live: list[SweepRequest] = []
        for req in batch:
            if not req.live:
                continue  # client went away; drop the lane
            if req.expired(now):
                req.future.set_exception(DeadlineExceeded(
                    f"deadline exceeded before dispatch "
                    f"(queued {1e3 * (now - req.enqueued_at):.1f} ms)"
                ))
                continue
            live.append(req)
        if not live:
            return
        waits = [now - req.enqueued_at for req in live]
        try:
            payloads, sweep_s, lanes = await loop.run_in_executor(
                self.executor, self._sweep_and_finalize, live
            )
        except BaseException as exc:  # pool failure: fail the whole batch
            if self.metrics is not None:
                self.metrics.record_batch_failure()
            # Structured pool faults keep their type so the service can
            # map them to distinct status codes (quarantine vs broken).
            if isinstance(exc, (ChunkQuarantined, PoolBroken)):
                failure: BaseException = exc
            else:
                failure = RuntimeError(f"sweep failed: {exc}")
            for req in live:
                if req.live:
                    req.future.set_exception(failure)
            return
        if self.metrics is not None:
            self.metrics.record_batch(len(live), waits, sweep_s, lanes=lanes)
        for req, payload in zip(live, payloads):
            if req.live:
                if isinstance(payload, BaseException):
                    req.future.set_exception(payload)
                else:
                    req.future.set_result(payload)

    def _sweep_and_finalize(self, live: list) -> tuple[list, float, int]:
        """Executor-side: one multi-source sweep + per-request fan-out.

        Requests sharing a source share one sweep lane (singleflight-
        style coalescing): a batch of k requests from u distinct
        origins costs a u-lane sweep, so hot origins — depots, hubs,
        popular tiles — get cheaper the more concurrently they are
        asked about.
        """
        t0 = time.monotonic()
        lane: dict[int, int] = {}
        for req in live:
            if req.execute is None:
                lane.setdefault(req.source, len(lane))
        rows = self.sweep_fn(list(lane)) if lane else None
        payloads: list = []
        for req in live:
            try:
                if req.execute is not None:
                    payloads.append(req.execute())
                else:
                    payloads.append(req.finalize(rows[lane[req.source]]))
            except Exception as exc:
                payloads.append(exc)
        return payloads, time.monotonic() - t0, len(lane)
