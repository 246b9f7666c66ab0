"""The dynamic micro-batching scheduler.

PHAST amortizes the cost of a sweep over the ``k`` trees of one
multi-source sweep (Section IV-B).  ``C(k)`` is the cost of one served
batch of ``k`` tree requests: each lane's upward search, the sweep,
and the batch's answer frames.  ``benchmarks/bench_server.py``
measures it in process (``BENCH_server.json``, ``batch_cost``; 4096
vertices, 2 vCPUs, ten alternating rounds) as ``C(k) = 0.030 +
0.054 k`` ms, the rounds' alphas 0.020–0.039 ms and betas
0.054–0.055 ms (quartiles): the searches, the sweep and the scatter of
all k lanes are one native call, and all k answer frames one more.
Per request, a batch costs 0.095 ms at k = 1, 0.059 ms at k = 4 and
0.053–0.057 ms at k = 8 and 16, whose sweeps run at a constant lane
width.  Batching is kept because under load it costs nothing —
requests that arrive during one batch form the next — and it saves
up to 44% of a request's cost.

A sweep request is queued as a record, not an object: each read's run
of sweep requests is one :class:`SweepChunk` of the intake's records,
and a batch takes lanes from the chunks at the front of the queue.
The policy:

* the first queued request opens a *batch window*;
* everything queued behind it joins immediately — dispatches are
  serialized, so requests arriving during the previous batch have
  already piled up (continuous batching);
* the window then yields one event-loop turn at a time, so reads the
  connections have received can reach the queue, and
  stays open only while each turn brings more sweep-shaped requests
  (tree / one-to-many / isochrone — anything needing one source's
  distance row): it closes on the first turn that brings nothing, at
  ``batch_max`` lanes, or after ``max_wait_ms`` total, whichever
  comes first;
* the batch runs as one multi-source sweep on the engine, one lane
  per sweep request, and one ``answer_fn`` call answers all its sweep
  requests from the rows right after the sweep, reading them from
  their records; a request whose deadline passed in the queue is
  answered by ``fail_fn`` instead and takes no lane.

The batcher queues sweep requests and nothing else, since only they
share work: a matrix or a metric swap shares nothing with a sweep, and
the service runs those on a thread of their own.  Every batch runs on
the event-loop thread itself — the sweep, then the answers.  A batch of this cost gains nothing from an executor
thread: the loop has little to do meanwhile, and the two threads
contend for one GIL, so the handoff costs more than it overlaps.

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

from .protocol import RECORD

__all__ = ["DeadlineExceeded", "SchedulerStopped", "SweepChunk",
           "MicroBatcher"]


class DeadlineExceeded(Exception):
    """The request's deadline passed before its work started."""

    @classmethod
    def queued(cls, now: float, at: float) -> "DeadlineExceeded":
        """The error of a request that arrived at ``at`` and was still
        waiting at ``now``, past its deadline."""
        return cls(f"deadline exceeded before dispatch "
                   f"(queued {1e3 * (now - at):.1f} ms)")


class SchedulerStopped(Exception):
    """The scheduler shut down with this request still queued."""


class SweepChunk:
    """Sweep requests that arrived together, queued as one item.

    The requests are records ``lo`` to ``hi`` of one intake parse
    (:func:`repro.server.protocol.parse_requests`): ``records`` is its
    ``array("q")``, ``data`` the read its ids are offsets into and
    ``targets`` its targets (or ``None``).  They are consecutive in
    one read of ``conn``, arrived at ``at`` (``time.monotonic``) and
    share one ``deadline`` (``None`` for none).  No request becomes an
    object of its own: the batcher takes records from the front
    (``lo`` moves up, and a batch may end inside a chunk), reads each
    one's source in place, and the batcher's ``answer_fn`` writes the
    answers from the records.

    ``conn`` owes the chunk once, for ``owed`` answers (``conn.owe``),
    from construction until :meth:`settle` has counted the last of
    them.  A dropped connection cancels it (:meth:`cancel`), which
    frees its owed answers at once and marks it ``dead``, so its
    records are not swept.
    """

    __slots__ = ("conn", "records", "data", "targets", "lo", "hi", "at",
                 "deadline", "owed", "dead")

    def __init__(self, conn, records, data: bytes, targets, lo: int,
                 hi: int, at: float, deadline: float | None) -> None:
        self.conn = conn
        self.records = records
        self.data = data
        self.targets = targets
        self.lo = lo
        self.hi = hi
        self.at = at
        self.deadline = deadline
        self.owed = hi - lo
        self.dead = False
        conn.owe(self, hi - lo)

    def sources(self, lo: int, hi: int):
        """The sources of records ``lo`` to ``hi``."""
        return self.records[RECORD * lo + 5:RECORD * hi:RECORD]

    def settle(self, count: int) -> None:
        """``count`` more of the chunk's requests are answered."""
        self.owed -= count
        self.conn.settle(self, count, not self.owed)

    def cancel(self) -> None:
        """The connection went away: nothing more is owed or swept."""
        self.dead = True
        if self.owed:
            self.settle(self.owed)


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
        concurrently with itself; it runs on the event-loop thread.
    answer_fn:
        ``answer_fn(segments, rows)`` answers a batch's live sweep
        requests at once, on the event-loop thread: each segment is
        ``(chunk, lo, hi, lane)``, records ``lo`` to ``hi`` of a
        :class:`SweepChunk`, answered from ``rows[lane]`` onwards.  It
        settles what it answers, or raises before answering any; the
        batcher then fails them all.
    fail_fn:
        ``fail_fn(chunk, lo, hi, exc)`` answers records ``lo`` to
        ``hi`` of a chunk with the exception that ended them (a passed
        deadline, a failed sweep, a stopped scheduler).
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
        fail_fn: Callable,
        *,
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
        self.fail_fn = fail_fn
        self.batch_max = int(batch_max)
        self.max_wait_ms = float(max_wait_ms)
        self.metrics = metrics
        # Queued chunks, and the dispatch loop's wake-up while it waits
        # on an empty queue.
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

    def submit(self, chunk: SweepChunk) -> None:
        """Queue a chunk of sweep requests (event-loop thread only)."""
        if self._stopped:
            raise SchedulerStopped("scheduler is stopped")
        self._put(chunk)

    def _put(self, item) -> None:
        self._queue.append(item)
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if not waiter.done():
                waiter.set_result(None)

    # -- dispatch loop -----------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        closing = False
        while not closing:
            if not queue:
                self._waiter = loop.create_future()
                await self._waiter
            segments: list = []
            closing = await self._fill_window(segments)
            if segments:
                self._dispatch(segments)
            # A batch held the loop: give the connections a turn to take
            # in what arrived meanwhile, or to see that a client left,
            # before the next batch forms.
            await asyncio.sleep(0)
        # Fail anything that slipped in after the close sentinel.
        stopped = SchedulerStopped("server stopped")
        while queue:
            chunk = queue.popleft()
            if chunk is not _CLOSE and not chunk.dead:
                self.fail_fn(chunk, chunk.lo, chunk.hi, stopped)

    async def _fill_window(self, segments: list) -> bool:
        """Fill the batch window; True when _CLOSE was seen.

        Everything already queued joins immediately, a record a lane,
        up to ``batch_max`` (under steady load, frames arrive while the
        previous batch runs, so batches form for free — continuous
        batching); a chunk longer than the room left is split, its rest
        staying at the front of the queue.  The window then yields one
        event-loop turn and drains again, for as long as each turn
        brings new arrivals: each connection queues the frames of a
        read as it takes the read in, so a turn lets frames that have
        already arrived reach the queue.  The first turn that brings
        nothing closes the window, as do ``batch_max`` lanes and
        ``max_wait_ms`` total.  No turn waits on a timer, so a lone
        request is not held back waiting for company that is not on its
        way.
        """
        queue = self._queue
        batch_max = self.batch_max
        deadline = time.monotonic() + self.max_wait_ms / 1e3
        lanes = 0
        while True:
            while lanes < batch_max and queue:
                chunk = queue[0]
                if chunk is _CLOSE:
                    queue.popleft()
                    return True
                lo = chunk.lo
                hi = min(chunk.hi, lo + batch_max - lanes)
                segments.append((chunk, lo, hi))
                lanes += hi - lo
                chunk.lo = hi
                if hi == chunk.hi:
                    queue.popleft()
            if lanes >= batch_max or time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0)
            if not queue:
                return False  # the turn brought nobody: dispatch now

    def _dispatch(self, segments: list) -> None:
        """Sweep and answer one batch, on the loop: records whose client
        went away are dropped and expired ones failed; the rest take
        lanes in queue order."""
        t0 = time.monotonic()
        live: list = []
        waits: list = []
        sources: list = []
        lane = 0
        for chunk, lo, hi in segments:
            if chunk.dead:
                continue
            if chunk.deadline is not None and t0 >= chunk.deadline:
                self.fail_fn(chunk, lo, hi, DeadlineExceeded.queued(
                    t0, chunk.at))
                continue
            live.append((chunk, lo, hi, lane))
            waits.append((t0 - chunk.at, hi - lo))
            sources += chunk.sources(lo, hi)
            lane += hi - lo
        if not live:
            return
        t1 = time.monotonic()
        try:
            self.answer_fn(live, self.sweep_fn(sources))
        except Exception as exc:  # sweep failure: fail the whole batch
            if self.metrics is not None:
                self.metrics.record_batch_failure()
            failure = RuntimeError(f"sweep failed: {exc}")
            for chunk, lo, hi, _ in live:
                self.fail_fn(chunk, lo, hi, failure)
            return
        if self.metrics is not None:
            self.metrics.record_batch(lane, waits, time.monotonic() - t1)
