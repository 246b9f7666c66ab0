"""Tests for the micro-batching window (`repro.server.scheduler`).

A :class:`MicroBatcher` is driven directly with a stub ``sweep_fn`` that
records every dispatch, and stub ``answer_fn`` and ``fail_fn`` that
keep each request's outcome, so each test sees exactly which requests
shared a batch and when it left.  Sweep requests are queued as
:class:`SweepChunk` records, one chunk per request unless a test says
otherwise.  The window closes on the first event-loop turn that brings
no new request, at ``batch_max`` lanes, or at the ``max_wait_ms`` cap;
``stop()`` ends the loop from inside an open window.
"""

from __future__ import annotations

import asyncio
import time
from array import array

import pytest

from repro.server.scheduler import (
    DeadlineExceeded,
    MicroBatcher,
    SchedulerStopped,
    SweepChunk,
)


class _Recorder:
    """Stub ``sweep_fn``: one row ``("row", source)`` per lane, logged."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, list[int]]] = []

    def __call__(self, sources):
        self.calls.append((time.monotonic(), list(sources)))
        return [("row", s) for s in sources]

    @property
    def batches(self) -> list[list[int]]:
        return [sources for _, sources in self.calls]


class _Conn:
    """Stub connection: the answers it is owed."""

    def __init__(self) -> None:
        self.owed = 0

    def owe(self, chunk, count) -> None:
        self.owed += count

    def settle(self, chunk, count, last) -> None:
        self.owed -= count
        assert self.owed >= 0 and last == (chunk.owed == 0)


def _chunk(sources, conn=None, deadline=None) -> SweepChunk:
    """One read's tree requests from ``sources``, as intake records."""
    records = array("q")
    for source in sources:
        records.extend((0, 0, 0, 0, 0, source, 0, 0, 0))
    return SweepChunk(conn or _Conn(), records, b"", None, 0, len(sources),
                      time.monotonic(), deadline)


class _Answers:
    """Stub ``answer_fn`` and ``fail_fn``: each request's outcome (its
    row, or the exception that ended it), by chunk and record."""

    def __init__(self) -> None:
        self.outcomes: dict = {}
        self.segments: list[list] = []
        self._wake = asyncio.Event()

    def answer(self, segments, rows) -> None:
        self.segments.append([(chunk.sources(lo, hi).tolist(), lane)
                              for chunk, lo, hi, lane in segments])
        for chunk, lo, hi, lane in segments:
            for i in range(lo, hi):
                self._set(chunk, i, rows[lane + i - lo])
            chunk.settle(hi - lo)

    def fail(self, chunk, lo, hi, exc) -> None:
        for i in range(lo, hi):
            self._set(chunk, i, exc)
        chunk.settle(hi - lo)

    def _set(self, chunk, i, outcome) -> None:
        key = (id(chunk), i)
        assert key not in self.outcomes, "a request was answered twice"
        self.outcomes[key] = outcome
        self._wake.set()
        self._wake = asyncio.Event()

    def answered(self, chunk, i: int = 0) -> bool:
        return (id(chunk), i) in self.outcomes

    async def result(self, chunk, i: int = 0):
        while not self.answered(chunk, i):
            await self._wake.wait()
        outcome = self.outcomes[(id(chunk), i)]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def _run(coro_fn, recorder=None, **kwargs):
    """Run ``coro_fn(batcher, recorder, answers)`` on a fresh loop and
    batcher; returns its value, the recorder and the answers."""
    recorder = recorder or _Recorder()

    async def main():
        answers = _Answers()
        batcher = MicroBatcher(recorder, answers.answer, answers.fail,
                               **kwargs)
        batcher.start()
        try:
            value = await asyncio.wait_for(
                coro_fn(batcher, recorder, answers), 30)
        finally:
            await batcher.stop()
        return value, answers

    (value, answers) = asyncio.run(main())
    return value, recorder, answers


def test_lone_request_is_dispatched_without_waiting():
    """A lone request must not sit out a timed window (old gap: 125 ms)."""

    async def scenario(batcher, recorder, answers):
        chunk = _chunk([3])
        t0 = time.monotonic()
        batcher.submit(chunk)
        row = await answers.result(chunk)
        return row, time.monotonic() - t0, chunk.conn.owed

    (row, elapsed, owed), recorder, _ = _run(scenario, batch_max=16,
                                             max_wait_ms=1000)
    assert row == ("row", 3)
    assert owed == 0
    assert recorder.batches == [[3]]
    assert elapsed < 0.050, f"lone request took {1e3 * elapsed:.1f} ms"


@pytest.mark.parametrize("n", [3, 4, 7])
def test_burst_joins_one_batch(n):
    """Frames decoded in one loop iteration share one dispatch."""
    batch_max = 4

    async def scenario(batcher, recorder, answers):
        async def respond(source):
            # One task per submitter, standing in for connection readers.
            chunk = _chunk([source])
            batcher.submit(chunk)
            return await answers.result(chunk)

        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(respond(s)) for s in range(n)]
        return await asyncio.gather(*tasks)

    rows, recorder, _ = _run(scenario, batch_max=batch_max, max_wait_ms=1000)
    assert rows == [("row", s) for s in range(n)]
    sizes = [len(b) for b in recorder.batches]
    assert sizes[0] == min(n, batch_max)
    assert sum(sizes) == n
    if n > batch_max:
        assert sizes == [batch_max, n - batch_max]


def test_a_chunk_longer_than_the_room_left_is_split():
    """One read's run of requests fills the batch and the rest of it
    leads the next; every record is answered from its own lane."""

    async def scenario(batcher, recorder, answers):
        first, second = _chunk([1, 2]), _chunk(range(10, 17))
        batcher.submit(first)
        batcher.submit(second)
        return ([await answers.result(first, i) for i in range(2)]
                + [await answers.result(second, i) for i in range(7)],
                second.conn.owed)

    (rows, owed), recorder, answers = _run(scenario, batch_max=4,
                                           max_wait_ms=1000)
    assert rows == [("row", s) for s in [1, 2, *range(10, 17)]]
    assert owed == 0
    assert recorder.batches == [[1, 2, 10, 11], [12, 13, 14, 15], [16]]
    assert answers.segments[0] == [([1, 2], 0), ([10, 11], 2)]


def test_staggered_arrivals_keep_the_window_open():
    """Each turn that brings a request extends the window by a turn."""

    async def scenario(batcher, recorder, answers):
        async def respond(source, turns):
            for _ in range(turns):
                await asyncio.sleep(0)
            chunk = _chunk([source])
            batcher.submit(chunk)
            return await answers.result(chunk)

        loop = asyncio.get_running_loop()
        tasks = [loop.create_task(respond(s, s)) for s in range(5)]
        return await asyncio.gather(*tasks)

    rows, recorder, _ = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert rows == [("row", s) for s in range(5)]
    assert recorder.batches == [[0, 1, 2, 3, 4]]


def test_same_source_requests_take_one_lane_each():
    sources = [5, 5, 7, 5, 7, 9]

    async def scenario(batcher, recorder, answers):
        chunk = _chunk(sources)
        batcher.submit(chunk)
        return [await answers.result(chunk, i) for i in range(len(sources))]

    rows, recorder, _ = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert rows == [("row", s) for s in sources]
    assert recorder.batches == [sources]


async def _trickle(batcher, chunks: list, until) -> None:
    """Submit one request per loop turn until ``until()`` or stop."""
    source = 0
    while not until():
        chunk = _chunk([source])
        try:
            batcher.submit(chunk)
        except SchedulerStopped:
            return
        chunks.append(chunk)
        source += 1
        await asyncio.sleep(0)


@pytest.mark.parametrize("batch_max,max_wait_ms",
                         [(1, 10_000), (8, 10_000), (100_000, 30)])
def test_steady_trickle_is_dispatched_at_the_cap(batch_max, max_wait_ms):
    """Arrivals on every turn cannot hold a window past its caps.

    ``batch_max=1`` is strict dispatch-one: every dispatch has one lane.
    """

    async def scenario(batcher, recorder, answers):
        chunks: list[SweepChunk] = []
        t0 = time.monotonic()
        await _trickle(batcher, chunks, lambda: bool(recorder.calls)
                       or time.monotonic() - t0 > 10)
        assert recorder.calls, "window never closed under a steady trickle"
        first_at = recorder.calls[0][0]
        await asyncio.gather(*(answers.result(c) for c in chunks))
        return first_at - chunks[0].at

    waited, recorder, _ = _run(scenario, batch_max=batch_max,
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

    async def scenario(batcher, recorder, answers):
        chunks: list[SweepChunk] = []
        loop = asyncio.get_running_loop()
        producer = loop.create_task(_trickle(batcher, chunks, lambda: False))
        while len(chunks) < 20:
            await asyncio.sleep(0)
        assert not recorder.calls  # the window is still open
        stopper = loop.create_task(batcher.stop())
        await asyncio.sleep(0)  # stop() has queued its close sentinel
        late = _chunk([-1])
        batcher._queue.append(late)  # slipped in behind the close
        await asyncio.wait_for(stopper, 10)
        await producer
        with pytest.raises(SchedulerStopped):
            await answers.result(late)
        assert late.conn.owed == 0
        with pytest.raises(SchedulerStopped):
            batcher.submit(_chunk([0]))
        return await asyncio.gather(*(answers.result(c) for c in chunks))

    rows, recorder, _ = _run(scenario, batch_max=100_000, max_wait_ms=60_000)
    n = len(rows)
    assert rows == [("row", s) for s in range(n)]
    assert recorder.batches == [list(range(n))]


def test_dropped_request_loses_its_lane():
    """A request whose client went away is not swept or answered, and
    its owed answers are freed when it is dropped."""

    async def scenario(batcher, recorder, answers):
        chunks = [_chunk([s]) for s in (1, 2, 3)]
        chunks[1].cancel()  # the connection dropped it
        assert chunks[1].conn.owed == 0
        for chunk in chunks:
            batcher.submit(chunk)
        rows = [await answers.result(chunks[0]),
                await answers.result(chunks[2])]
        assert not answers.answered(chunks[1])
        return rows

    rows, recorder, _ = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert rows == [("row", 1), ("row", 3)]
    assert recorder.batches == [[1, 3]]


def test_expired_requests_are_answered_and_not_swept():
    """A chunk whose deadline passed in the queue is answered with
    DeadlineExceeded and takes no lane."""

    async def scenario(batcher, recorder, answers):
        late = _chunk([1, 2], deadline=time.monotonic() - 1)
        on_time = _chunk([3], deadline=time.monotonic() + 60)
        batcher.submit(late)
        batcher.submit(on_time)
        row = await answers.result(on_time)
        for i in range(2):
            with pytest.raises(DeadlineExceeded):
                await answers.result(late, i)
        return row, late.conn.owed

    (row, owed), recorder, _ = _run(scenario, batch_max=16, max_wait_ms=1000)
    assert row == ("row", 3) and owed == 0
    assert recorder.batches == [[3]]


def test_a_failed_sweep_fails_every_request_of_its_batch():
    def broken(sources):
        raise OSError("no engine")

    async def scenario(batcher, recorder, answers):
        chunks = [_chunk([1, 2]), _chunk([3])]
        for chunk in chunks:
            batcher.submit(chunk)
        for chunk, count in zip(chunks, (2, 1)):
            for i in range(count):
                with pytest.raises(RuntimeError, match="no engine"):
                    await answers.result(chunk, i)
        return [chunk.conn.owed for chunk in chunks]

    owed, _, _ = _run(scenario, broken, batch_max=16, max_wait_ms=1000)
    assert owed == [0, 0]
