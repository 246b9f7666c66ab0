"""Tests for the micro-batching window (`repro.server.scheduler`).

A :class:`MicroBatcher` is driven directly with a stub ``sweep_fn`` that
records every dispatch, and each request with a stub reply that keeps
its outcome, so each test sees exactly which requests shared a batch
and when it left.  The window closes on the first event-loop
turn that brings no new request, at ``batch_max`` lanes, or at the
``max_wait_ms`` cap; ``stop()`` ends the loop from inside an open
window.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.server.scheduler import MicroBatcher, SchedulerStopped, SweepRequest


class _Recorder:
    """Stub ``sweep_fn``: one row ``("row", source)`` per lane, logged."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, list[int]]] = []
        self._lock = threading.Lock()

    def __call__(self, sources):
        with self._lock:
            self.calls.append((time.monotonic(), list(sources)))
        return [("row", s) for s in sources]

    @property
    def batches(self) -> list[list[int]]:
        with self._lock:
            return [sources for _, sources in self.calls]


class _Reply:
    """Stub reply: keeps the request's outcome for ``await result()``."""

    def __init__(self) -> None:
        self.done = False
        self.outcome = None
        self.thread = None
        self._arrived = asyncio.Event()

    def __call__(self, outcome) -> None:
        assert not self.done, "a request was answered twice"
        self.done = True
        self.outcome = outcome
        self.thread = threading.current_thread()
        self._arrived.set()

    async def result(self):
        await self._arrived.wait()
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return self.outcome


def _request(source: int) -> SweepRequest:
    return SweepRequest("tree", source, None, _Reply())


def _answer(requests, lanes, rows) -> None:
    """Stub ``answer_fn``: each request's outcome is its row."""
    for req, lane in zip(requests, lanes):
        req.reply(rows[lane])


def _run(coro_fn, recorder=None, answer=_answer, **kwargs):
    """Run ``coro_fn(batcher, recorder)`` on a fresh loop and batcher."""
    recorder = recorder or _Recorder()

    async def main():
        with ThreadPoolExecutor(max_workers=1) as executor:
            batcher = MicroBatcher(recorder, answer, executor=executor,
                                   **kwargs)
            batcher.start()
            try:
                return await asyncio.wait_for(coro_fn(batcher, recorder), 30)
            finally:
                await batcher.stop()

    return asyncio.run(main()), recorder


def test_lone_request_is_dispatched_without_waiting():
    """A lone request must not sit out a timed window (old gap: 125 ms)."""

    async def scenario(batcher, recorder):
        req = _request(3)
        t0 = time.monotonic()
        batcher.submit(req)
        row = await req.reply.result()
        return row, time.monotonic() - t0

    (row, elapsed), recorder = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert row == ("row", 3)
    assert recorder.batches == [[3]]
    assert elapsed < 0.050, f"lone request took {1e3 * elapsed:.1f} ms"


@pytest.mark.parametrize("n", [3, 4, 7])
def test_burst_joins_one_batch(n):
    """Frames decoded in one loop iteration share one dispatch."""
    batch_max = 4

    async def scenario(batcher, recorder):
        async def respond(source):
            # One task per submitter, standing in for connection readers.
            req = _request(source)
            batcher.submit(req)
            return await req.reply.result()

        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(respond(s)) for s in range(n)]
        return await asyncio.gather(*tasks)

    rows, recorder = _run(scenario, batch_max=batch_max, max_wait_ms=1000)
    assert rows == [("row", s) for s in range(n)]
    sizes = [len(b) for b in recorder.batches]
    assert sizes[0] == min(n, batch_max)
    assert sum(sizes) == n
    if n > batch_max:
        assert sizes == [batch_max, n - batch_max]


def test_staggered_arrivals_keep_the_window_open():
    """Each turn that brings a request extends the window by a turn."""

    async def scenario(batcher, recorder):
        async def respond(source, turns):
            for _ in range(turns):
                await asyncio.sleep(0)
            req = _request(source)
            batcher.submit(req)
            return await req.reply.result()

        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(respond(s, s)) for s in range(5)]
        return await asyncio.gather(*tasks)

    rows, recorder = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert rows == [("row", s) for s in range(5)]
    assert recorder.batches == [[0, 1, 2, 3, 4]]


def test_same_source_requests_take_one_lane_each():
    sources = [5, 5, 7, 5, 7, 9]

    async def scenario(batcher, recorder):
        reqs = [_request(s) for s in sources]
        for req in reqs:
            batcher.submit(req)
        return await asyncio.gather(*(r.reply.result() for r in reqs))

    rows, recorder = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert rows == [("row", s) for s in sources]
    assert recorder.batches == [sources]


async def _trickle(batcher, reqs: list, until) -> None:
    """Submit one request per loop turn until ``until()`` or stop."""
    source = 0
    while not until():
        req = _request(source)
        try:
            batcher.submit(req)
        except SchedulerStopped:
            return
        reqs.append(req)
        source += 1
        await asyncio.sleep(0)


@pytest.mark.parametrize("batch_max,max_wait_ms",
                         [(1, 10_000), (8, 10_000), (100_000, 30)])
def test_steady_trickle_is_dispatched_at_the_cap(batch_max, max_wait_ms):
    """Arrivals on every turn cannot hold a window past its caps.

    ``batch_max=1`` is strict dispatch-one: every dispatch has one lane.
    """

    async def scenario(batcher, recorder):
        reqs: list[SweepRequest] = []
        t0 = time.monotonic()
        await _trickle(batcher, reqs, lambda: bool(recorder.calls)
                       or time.monotonic() - t0 > 10)
        assert recorder.calls, "window never closed under a steady trickle"
        first_at = recorder.calls[0][0]
        await asyncio.gather(*(r.reply.result() for r in reqs))
        return first_at - reqs[0].enqueued_at

    waited, recorder = _run(scenario, batch_max=batch_max,
                            max_wait_ms=max_wait_ms)
    first = recorder.batches[0]
    if batch_max == 1:
        assert recorder.batches == [[s] for s in range(len(recorder.batches))]
    elif batch_max == 8:
        assert first == list(range(8))
    else:
        assert 1 < len(first) < batch_max
        assert waited >= max_wait_ms / 1e3
        assert waited < max_wait_ms / 1e3 + 1.0


def test_stop_during_open_window_ends_the_loop():
    """stop() closes an open window; later requests fail fast."""

    async def scenario(batcher, recorder):
        reqs: list[SweepRequest] = []
        loop = asyncio.get_running_loop()
        producer = loop.create_task(_trickle(batcher, reqs, lambda: False))
        while len(reqs) < 20:
            await asyncio.sleep(0)
        assert not recorder.calls  # the window is still open
        stopper = loop.create_task(batcher.stop())
        await asyncio.sleep(0)  # stop() has queued its close sentinel
        late = _request(-1)
        batcher._queue.append(late)  # slipped in behind the close
        await asyncio.wait_for(stopper, 10)
        await producer
        with pytest.raises(SchedulerStopped):
            await late.reply.result()
        with pytest.raises(SchedulerStopped):
            batcher.submit(_request(0))
        return await asyncio.gather(*(r.reply.result() for r in reqs))

    rows, recorder = _run(scenario, batch_max=100_000, max_wait_ms=60_000)
    n = len(rows)
    assert rows == [("row", s) for s in range(n)]
    assert recorder.batches == [list(range(n))]


def test_dropped_request_loses_its_lane():
    """A request whose client went away is not swept or answered."""

    async def scenario(batcher, recorder):
        reqs = [_request(s) for s in (1, 2, 3)]
        reqs[1].reply.done = True  # the connection dropped it
        for req in reqs:
            batcher.submit(req)
        rows = [await reqs[0].reply.result(), await reqs[2].reply.result()]
        assert reqs[1].reply.outcome is None
        return rows

    rows, recorder = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert rows == [("row", 1), ("row", 3)]
    assert recorder.batches == [[1, 3]]


def test_request_that_dies_during_an_executor_batch_is_skipped():
    """Lane ``i`` is the batch's ``i``-th sweep request: one whose
    client left while the batch ran on the executor is not answered,
    and the others keep their lanes."""
    answered = []

    def answer(requests, lanes, rows):
        answered.append(([req.source for req in requests], list(lanes)))
        _answer(requests, lanes, rows)

    async def scenario(batcher, recorder):
        reqs = [_request(s) for s in (4, 6, 8)]

        def drop_one():
            reqs[1].reply.done = True  # its connection went away
            return "payload"

        exclusive = SweepRequest("matrix", -1, None, _Reply(),
                                 execute=drop_one)
        batcher.submit(exclusive)
        for req in reqs:
            batcher.submit(req)
        assert await exclusive.reply.result() == "payload"
        return [await reqs[0].reply.result(), await reqs[2].reply.result()]

    rows, recorder = _run(scenario, answer=answer, batch_max=16,
                          max_wait_ms=1000)
    assert rows == [("row", 4), ("row", 8)]
    assert recorder.batches == [[4, 6, 8]]
    assert answered == [([4, 8], [0, 2])]


class _ThreadRecorder(_Recorder):
    """Also logs the thread each sweep ran on."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: list[threading.Thread] = []

    def __call__(self, sources):
        self.threads.append(threading.current_thread())
        return super().__call__(sources)


def test_on_loop_sweeps_run_on_the_loop_and_exclusive_batches_do_not():
    """Sweep batches (sweep, answers) always run on the event-loop
    thread; a batch holding an exclusive request never sweeps there
    (it goes to the executor, its sweep lanes with it), and the next
    sweep batch is back on the loop."""
    recorder = _ThreadRecorder()
    finalized = []

    def answer(requests, lanes, rows):
        finalized.append(threading.current_thread())
        _answer(requests, lanes, rows)

    async def scenario(batcher, recorder):
        loop_thread = threading.current_thread()
        req = _request(4)
        batcher.submit(req)
        assert await req.reply.result() == ("row", 4)
        exclusive = SweepRequest(
            "matrix", -1, None, _Reply(),
            execute=lambda: threading.current_thread(),
        )
        batcher.submit(exclusive)
        batcher.submit(_request(5))
        ran_on = await exclusive.reply.result()
        last = _request(6)
        batcher.submit(last)
        assert await last.reply.result() == ("row", 6)
        return loop_thread, ran_on

    (loop_thread, ran_on), recorder = _run(
        scenario, recorder, answer, batch_max=16, max_wait_ms=1000)
    assert recorder.batches == [[4], [5], [6]]
    assert recorder.threads[0] is loop_thread
    assert finalized == [loop_thread] * 3
    assert ran_on is not loop_thread
    assert recorder.threads[1] is ran_on  # the sweep rode the same batch
    assert recorder.threads[2] is loop_thread
