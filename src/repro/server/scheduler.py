"""The dynamic micro-batching scheduler.

PHAST amortizes the cost of a sweep over the ``k`` trees of one
multi-source sweep (Section IV-B).  On the serving path, with the
native kernels, that amortization is small.  ``C(k)`` is the cost of
one served batch of ``k`` tree requests: each lane's upward search,
the sweep, and the batch's answer frames.
``benchmarks/bench_server.py`` measures it in process
(``BENCH_server.json``, ``batch_cost``; 4096 vertices, 2 vCPUs) as
``C(k) = -0.011 + 0.042 k`` ms; seven runs on the same host gave
``alpha`` of -0.040–0.051 ms, no different from zero, and ``beta`` of
0.041–0.072 ms: the searches, the sweep and the scatter of all k
lanes are one native call, and all k answer frames one more.  Per
request, a batch costs 0.05–0.11 ms at k = 1 and 0.04–0.07 ms at
k = 16, and within each run a k-lane batch costs less than k lone
ones at every k.  Batching is kept because under load it costs
nothing — requests that arrive during one batch form the next — and
it saves 19–43% of a request's cost.  The policy:

* the first queued request opens a *batch window*;
* everything queued behind it joins immediately — dispatches are
  serialized, so requests arriving during the previous batch have
  already piled up (continuous batching);
* the window then yields one event-loop turn at a time, so reads the
  connections have received can reach ``submit``, and
  stays open only while each turn brings more sweep-shaped requests
  (tree / one-to-many / isochrone — anything needing one source's
  distance row): it closes on the first turn that brings nothing, at
  ``batch_max`` lanes, or after ``max_wait_ms`` total, whichever
  comes first;
* the batch runs as one multi-source sweep on the engine, one lane
  per sweep request, and one ``answer_fn`` call answers all its sweep
  requests from the rows right after the sweep;
* each exclusive request's reply callback gets its payload, and any
  request its error.

A sweep batch runs on the event-loop thread itself.  A batch of this
cost gains nothing from an executor thread: the loop has little to do
meanwhile, and the two threads contend for one GIL, so the handoff
costs more than it overlaps.  Only batches holding an exclusive
request (matrix, swap_metric) go to the executor, so the loop goes on
reading while they do their long work.

No turn of the window waits on a timer (the poller rounds a timed
wait up to whole milliseconds), so a lone request pays one loop turn
of window, not a timed idle gap.  ``batch_max=1`` is strict
dispatch-one.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable

__all__ = ["DeadlineExceeded", "SchedulerStopped", "SweepRequest", "MicroBatcher"]


class DeadlineExceeded(Exception):
    """The request's deadline passed before its batch was dispatched."""


class SchedulerStopped(Exception):
    """The scheduler shut down with this request still queued."""


class SweepRequest:
    """One queued sweep-shaped request.

    ``op`` and ``arg`` say what its answer is made of: the batcher does
    not look at them, it hands the request, its lane and the batch's
    rows to the batcher's ``answer_fn``, which answers every sweep
    request of a batch at once, right after the sweep, on the
    event-loop thread, before the reused rows are overwritten by the
    next batch.

    ``reply(outcome)`` takes the payload, or the exception that ended
    the request, on the event-loop thread.  ``reply.done`` turns true
    once the request needs no answer (it was answered, or its client
    went away); the batcher then drops it and never calls ``reply``.

    *Exclusive* requests pass ``execute`` instead: a no-argument
    callable returning the payload, run on the executor thread after
    the batch's shared sweep (matrix requests use this — they sweep a
    restricted selection, not a lane of the full one).  Routing them
    through the batcher keeps every engine access serialized by the
    one dispatch loop while they still get deadline checks and ride the
    same admission accounting.

    ``now`` is the request's arrival on the ``time.monotonic`` clock
    (default: the time of construction).
    """

    __slots__ = ("op", "source", "arg", "reply", "enqueued_at",
                 "deadline", "execute")

    def __init__(
        self,
        op: str,
        source: int,
        arg,
        reply: Callable,
        deadline: float | None = None,
        now: float | None = None,
        *,
        execute: Callable | None = None,
    ) -> None:
        self.op = op
        self.source = int(source)
        self.arg = arg
        self.reply = reply
        self.enqueued_at = time.monotonic() if now is None else now
        self.deadline = deadline
        self.execute = execute

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    @property
    def live(self) -> bool:
        """Still owed an answer (not answered, client still there)."""
        return not self.reply.done


class _Close:
    pass


_CLOSE = _Close()


class MicroBatcher:
    """Batch sweep requests into multi-source dispatches.

    Parameters
    ----------
    sweep_fn:
        ``sweep_fn(sources) -> rows`` computing one distance row per
        source (a :class:`~repro.core.phast.PhastEngine` ``trees``
        call).  Dispatches are serialized, so ``sweep_fn`` never runs
        concurrently with itself.  Sweep batches (the sweep and the
        answers) run on the event-loop thread.
    answer_fn:
        ``answer_fn(requests, lanes, rows)`` answers a batch's live
        sweep requests at once, request ``i`` from ``rows[lanes[i]]``,
        on the event-loop thread; the batcher fails any it leaves
        unanswered by raising.
    executor:
        Where batches holding an exclusive request run.
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
        answer_fn: Callable,
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
        self.answer_fn = answer_fn
        self.executor = executor
        self.batch_max = int(batch_max)
        self.max_wait_ms = float(max_wait_ms)
        self.metrics = metrics
        # Queued requests, and the dispatch loop's wake-up while it
        # waits on an empty queue.
        self._queue: deque = deque()
        self._waiter: asyncio.Future | None = None
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
        self._put(_CLOSE)
        if self._task is not None:
            await self._task
            self._task = None

    # -- intake ------------------------------------------------------------

    def submit(self, request: SweepRequest) -> None:
        """Queue one request (event-loop thread only)."""
        if self._stopped:
            raise SchedulerStopped("scheduler is stopped")
        self._put(request)

    def _put(self, item) -> None:
        self._queue.append(item)
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    @property
    def depth(self) -> int:
        """Requests queued but not yet claimed by a batch."""
        return len(self._queue)

    # -- dispatch loop -----------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        closing = False
        while not closing:
            if not queue:
                self._waiter = loop.create_future()
                await self._waiter
            item = queue.popleft()
            if item is _CLOSE:
                break
            batch = [item]
            closing = await self._fill_window(batch)
            await self._dispatch(loop, batch)
            # A sweep batch held the loop: give the connections a turn
            # to take in what arrived meanwhile, or to see that a
            # client left, before the next batch forms.
            await asyncio.sleep(0)
        # Fail anything that slipped in after the close sentinel.
        while queue:
            item = queue.popleft()
            if isinstance(item, SweepRequest) and item.live:
                item.reply(SchedulerStopped("server stopped"))

    async def _fill_window(self, batch: list) -> bool:
        """Fill the batch window; True when _CLOSE was seen.

        Everything already queued joins immediately (under steady
        load, frames arrive while the previous batch runs, so batches
        form for free — continuous batching).  The window then yields
        one event-loop turn and drains again, for as long as each turn
        brings new arrivals: each connection submits the frames of a
        read as it takes the read in, so a turn lets frames that have
        already arrived reach ``submit``.  The first turn that brings nothing
        closes the window, as do ``batch_max`` lanes and
        ``max_wait_ms`` total.  No turn waits on a timer, so a
        lone request is not held back waiting for company that is not
        on its way.
        """
        queue = self._queue
        deadline = time.monotonic() + self.max_wait_ms / 1e3
        while True:
            while len(batch) < self.batch_max and queue:
                item = queue.popleft()
                if item is _CLOSE:
                    return True
                batch.append(item)
            if len(batch) >= self.batch_max or time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0)
            if not queue:
                return False  # the turn brought nobody: dispatch now

    async def _dispatch(self, loop, batch: list) -> None:
        now = time.monotonic()
        live: list[SweepRequest] = []
        for req in batch:
            if not req.live:
                continue  # client went away; drop the lane
            if req.expired(now):
                req.reply(DeadlineExceeded(
                    f"deadline exceeded before dispatch "
                    f"(queued {1e3 * (now - req.enqueued_at):.1f} ms)"
                ))
                continue
            live.append(req)
        if not live:
            return
        waits = [now - req.enqueued_at for req in live]
        sweeps = [req for req in live if req.execute is None]
        try:
            if len(sweeps) == len(live):
                rows, outcomes, run_s = self._execute(live, sweeps)
            else:
                rows, outcomes, run_s = await loop.run_in_executor(
                    self.executor, self._execute, live, sweeps
                )
            t0 = time.monotonic()
            # Lane i is sweep request i; one that died meanwhile (its
            # client went away during an executor batch) is skipped.
            lanes = [i for i, req in enumerate(sweeps) if req.live]
            if lanes:
                self.answer_fn([sweeps[i] for i in lanes], lanes, rows)
        except Exception as exc:  # sweep failure: fail the whole batch
            if self.metrics is not None:
                self.metrics.record_batch_failure()
            failure = RuntimeError(f"sweep failed: {exc}")
            for req in live:
                if req.live:
                    req.reply(failure)
            return
        if self.metrics is not None:
            self.metrics.record_batch(len(live), waits,
                                      run_s + time.monotonic() - t0)
        for req, outcome in outcomes:
            if req.live:
                req.reply(outcome)

    def _execute(self, live: list,
                 sweeps: list) -> tuple[object, list, float]:
        """One multi-source sweep, lane ``i`` for ``sweeps[i]``, then
        each exclusive request of ``live``.  Returns the rows, each
        exclusive request's payload or exception, and the seconds
        taken.
        """
        t0 = time.monotonic()
        rows = self.sweep_fn([req.source for req in sweeps]) if sweeps else None
        outcomes: list = []
        for req in live:
            if req.execute is not None:
                try:
                    outcomes.append((req, req.execute()))
                except Exception as exc:
                    outcomes.append((req, exc))
        return rows, outcomes, time.monotonic() - t0
