"""The asyncio TCP query service over one in-process :class:`PhastEngine`.

One process, one preprocessed hierarchy, four query types:

``query``
    Point-to-point distance via the bidirectional CH search — already
    sub-millisecond alone, so these bypass the batcher and run on a
    small thread pool, concurrently: they touch only their own heaps
    and dicts.
``tree`` / ``one_to_many`` / ``isochrone``
    All sweep-shaped (each needs one source's full distance row); they
    enter the :class:`~repro.server.scheduler.MicroBatcher` and ride a
    shared k-lane sweep, differing only in how the row is post-processed
    (whole row / gather at targets / threshold).
``matrix``
    k×m travel-time matrices.  The restricted (RPHAST) selection for
    the target set is built once, cached in an LRU keyed by target-set
    hash, and swept in multi-source lane groups.  Runs on the
    *exclusive* thread, one matrix or metric swap at a time in arrival
    order, so the selection cache is touched by one job at a time.
``swap_metric``
    Customizes new weights over the resident topology and installs the
    new engine, on the exclusive thread, while sweeps go on being
    answered from the old engine.
``ping`` / ``info`` / ``metrics`` / ``health``
    Liveness, instance facts, serving statistics, and readiness
    (draining or not, admission pressure, generation signals).

The event loop parses frames and answers each without a task of its
own.  One native call per socket read splits the frames and reads the
sweep requests among them (:func:`protocol.parse_requests`) into
records, an ``array("q")`` of ints per request.  A sweep request
stays a record of that array from its read until its answer is
written: each run of consecutive sweep records of a read is admitted
as a prefix and queued as one
:class:`~repro.server.scheduler.SweepChunk` (its records, the read's
bytes its ids are offsets into, its targets and its arrival time),
which its connection owes once, with a count.  Every other frame is
decoded by ``json.loads``; a sweep request among them (one the intake
declined, or any without the kernels) becomes a one-record chunk of
its own, so every sweep request is answered the same way.  Admin ops
reply at once.  The batcher runs each sweep batch on the loop thread
as well — the k-lane sweep (one native call), then every answer frame
of the batch, written from the records in place (one native call,
:func:`protocol.sweep_frames`), each connection's frames in one
transport write — because handing a batch to another thread costs
more than it overlaps when both threads contend for one GIL.  Sweeps
are serialized by the batcher (the engine is single-caller).
``query``, ``matrix`` and ``swap_metric`` leave the loop one way
(:meth:`PhastService._offload`): a job on their pool that, when it
starts, skips a request whose client left, answers one past its
deadline with 504, and otherwise computes the payload and answers it
through a reply callback on the loop.  More cores serve through
replicas behind ``repro route``.

Connections and shutdown follow the shared
:class:`~repro.server.listener.FrameServer`: the drain refuses new work
with 503, lets admitted requests finish and stops the scheduler before
the last connections close.
"""

from __future__ import annotations

import asyncio
import os
import time
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..ch.query import ch_query
from ..core.phast import PhastEngine
from ..core.rphast import SelectionCache
from ..graph.csr import INF
from . import protocol
from .listener import FrameHandle, FrameServer, run_in_thread
from .metrics import ServerMetrics
from .scheduler import (
    DeadlineExceeded,
    MicroBatcher,
    SchedulerStopped,
    SweepChunk,
)

__all__ = ["ServerConfig", "PhastService", "ServerHandle", "serve_in_thread"]

#: Threads for point-to-point queries.
EXECUTOR_THREADS = 4
#: Per-engine upward search cache for matrix sources (entries).
MATRIX_SEARCH_CACHE = 256
#: The sweep ops by intake op code, and the codes by op.
_SWEEP_OPS = ("tree", "one_to_many", "isochrone")
_SWEEP_CODES = {op: code for code, op in enumerate(_SWEEP_OPS)}
#: A record's budget is an int64; row values are at most INF, so a
#: larger budget clamped to this answers the same.
_I64_MAX = 2**63 - 1


@dataclass
class ServerConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 7171
    #: Lane cap per dispatched sweep, and the matrix op's lane group.
    batch_max: int = 16
    #: Cap on the batch window in milliseconds (0 disables the window).
    max_wait_ms: float = 2.0
    #: Admission bound on in-flight work requests.
    max_pending: int = 256
    #: Default per-request deadline; ``None`` disables deadlines.
    default_timeout_ms: float | None = 30_000.0
    #: LRU capacity of the RPHAST selection cache (distinct target
    #: sets with warm restricted structures).
    selection_cache: int = 32

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.selection_cache < 1:
            raise ValueError("selection_cache must be >= 1")


class _BadRequest(Exception):
    pass


class PhastService(FrameServer):
    """A resident hierarchy answering a stream of concurrent queries.

    Parameters
    ----------
    ch:
        The preprocessed :class:`~repro.ch.hierarchy.ContractionHierarchy`.
        May be ``None`` when ``topology`` + ``metric`` are given.
    topology:
        A :class:`~repro.ch.CHTopology`.  Keeping it resident is what
        enables the ``swap_metric`` op: a swap customizes new weights
        over this fixed structure on the serving host.  When ``ch`` is
        ``None``, the initial hierarchy is instantiated from
        ``topology`` + ``metric``.
    metric:
        The initial :class:`~repro.ch.CHMetric` (required iff ``ch``
        is ``None`` and ``topology`` is given).
    graph:
        The original graph (optional; only reported by ``info``).
    config:
        A :class:`ServerConfig`; defaults serve a single-host setup.
    """

    def __init__(self, ch=None, *, topology=None, metric=None, graph=None,
                 config: ServerConfig | None = None) -> None:
        super().__init__(config or ServerConfig(), ServerMetrics())
        self.topology = topology
        if ch is None:
            if topology is None or metric is None:
                raise ValueError(
                    "PhastService needs either a hierarchy or a "
                    "topology + metric pair"
                )
            ch = topology.instantiate(metric)
        self.ch = ch
        self.n = int(ch.n)
        self.intake_vertices = self.n
        self.graph = graph
        # Admission: the requests admitted and not yet answered are the
        # answers owed (``FrameServer._owed``), refused over
        # ``max_pending`` and while draining.  These count the rest.
        self.admitted_total = 0
        self.rejected = {"overloaded": 0, "draining": 0}
        # One reused output buffer: each batch's rows are answered
        # before the next batch overwrites them.  The engine takes its
        # address once; a batch of k writes the prefix view of k rows.
        self._rows = np.empty((self.config.batch_max, self.n), dtype=np.int64)
        engine = PhastEngine(ch)
        # The engine sweeps run on and its views of the buffer, which a
        # swap replaces as one, so a batch reads both of one metric.
        self._serving = (engine, engine.bind_rows(self._rows))
        #: Monotone counter bumped by every ``swap_metric``.
        self.metric_generation = 0
        #: Distance rows the batcher's sweeps have computed.
        self.trees_computed = 0
        # RPHAST selections for the matrix op, keyed by target-set
        # hash.  Touched only on the exclusive thread, so no locking is
        # needed.
        self.selections = SelectionCache(self.config.selection_cache)
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="phast-serve",
        )
        # Matrices and metric swaps, one at a time in arrival order: a
        # matrix queued behind a swap runs on the new metric.
        self._exclusive = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="phast-exclusive")
        self.batcher = MicroBatcher(
            self._sweep,
            self._answer_sweeps,
            self._fail_sweeps,
            batch_max=self.config.batch_max,
            max_wait_ms=self.config.max_wait_ms,
            metrics=self.metrics,
        )

    @property
    def engine(self) -> PhastEngine:
        """The engine sweeps run on now."""
        return self._serving[0]

    # -- lifecycle (the FrameServer steps) ---------------------------------

    async def _prepare(self) -> None:
        # Warm the sweep path so the first client doesn't pay for lazy
        # buffer allocation.
        engine, views = self._serving
        engine.trees([0], out=views[1])
        self.batcher.start()

    async def _release(self) -> None:
        await self.batcher.stop()
        self._executor.shutdown(wait=True)
        self._exclusive.shutdown(wait=True)
        self.selections.clear()

    # -- sweeps and matrices -----------------------------------------------

    def _sweep(self, sources: list[int]) -> np.ndarray:
        """One batch's rows (the batcher's ``sweep_fn``, on the loop).

        Reads ``self._serving`` once per call, so a batch runs whole on
        one metric's engine: the old one while a swap customizes, the
        new one once the swap has installed it.
        """
        engine, views = self._serving
        rows = engine.trees(sources, out=views[len(sources)])
        self.trees_computed += len(sources)
        return rows

    def _answer_sweeps(self, segments: list, rows: np.ndarray) -> None:
        """Answer one batch's sweep requests (the batcher's
        ``answer_fn``, on the loop): segment ``(chunk, lo, hi, lane)``
        answers records ``lo`` to ``hi`` of its chunk from
        ``rows[lane]`` onwards.

        Every frame is written by one call
        (:func:`protocol.sweep_frames`) from the records as the intake
        left them, with each connection's segments side by side, and
        each connection gets its frames in one write, a copy of the
        writer's reused buffer.  A frame over the cap is replaced by a
        500 error naming its size.  Latency is observed once per
        segment and op.
        """
        by_conn: dict = {}
        for seg in segments:
            by_conn.setdefault(seg[0].conn, []).append(seg)
        ordered = segments if len(by_conn) == 1 else [
            seg for group in by_conn.values() for seg in group]
        frames, ends = protocol.sweep_frames(rows, [
            (chunk.records, chunk.data, chunk.targets, lo, hi, lane)
            for chunk, lo, hi, lane in ordered])
        start = i = 0
        for conn, group in by_conn.items():
            i += len(group)
            end = ends[i - 1]
            # Only a run longer than the cap can hold a frame over it.
            if end - start > protocol.MAX_MESSAGE_BYTES:
                conn.write(self._capped(frames, start, group))
            else:
                conn.write(bytes(frames[start:end]))
            start = end
        now = time.monotonic()
        for chunk, lo, hi, _ in segments:
            chunk.settle(hi - lo)
            self._observe(chunk, lo, hi, now)

    def _capped(self, frames, start: int, group: list) -> bytes:
        """One connection's frames from ``start``, those of ``group``'s
        records, each over the cap replaced by a 500 error."""
        parts = []
        for chunk, lo, hi, _ in group:
            for i in range(lo, hi):
                length = int.from_bytes(frames[start:start + 4], "big")
                end = start + protocol.HEADER_BYTES + length
                too_large = protocol.frame_too_large(length)
                if too_large:
                    parts.append(protocol.encode_message(self._error(
                        self._id(chunk.data, chunk.records, i),
                        protocol.INTERNAL, too_large)))
                else:
                    parts.append(frames[start:end])
                start = end
        return b"".join(parts)

    def _fail_sweeps(self, chunk: SweepChunk, lo: int, hi: int,
                     exc: BaseException) -> None:
        """Answer records ``lo`` to ``hi`` of ``chunk`` with the error
        ``exc`` ended them in (the batcher's ``fail_fn``)."""
        for i in range(lo, hi):
            chunk.conn.send(self._failure(
                self._id(chunk.data, chunk.records, i), exc))
        chunk.settle(hi - lo)
        self._observe(chunk, lo, hi, time.monotonic())

    @staticmethod
    def _id(data: bytes, records, i: int):
        """Record ``i``'s id, as the JSON text it came in."""
        at = protocol.RECORD * i
        return protocol.encoded(data[records[at + 3]:records[at + 4]])

    def _observe(self, chunk: SweepChunk, lo: int, hi: int,
                 now: float) -> None:
        """The latency of records ``lo`` to ``hi`` of ``chunk``,
        answered at ``now``: one observation per op."""
        seconds = now - chunk.at
        for op, count in _op_counts(chunk.records, lo, hi):
            self.metrics.record_latency(op, seconds, count)

    def _matrix_payload(self, sources: list[int], targets: list[int]) -> dict:
        """Compute one k×m matrix (on the exclusive thread).

        The selection embeds copied arc weights; ``swap_metric`` clears
        the cache on the same thread, so a cached selection always
        belongs to the current metric.
        """
        hits_before = self.selections.hits
        t_arr = np.asarray(targets, dtype=np.int64)
        engine = self.selections.engine(
            self.ch, t_arr, search_cache=MATRIX_SEARCH_CACHE)
        cached = self.selections.hits > hits_before
        rows = engine.many_to_many(sources, lanes=self.config.batch_max)
        # Rows come back aligned to the engine's deduplicated, sorted
        # target set; re-map to the request's column order.
        cols = np.searchsorted(engine.targets, t_arr)
        mat = rows[:, cols]
        return {
            "matrix": protocol.int_array(mat),
            "rows": int(mat.shape[0]),
            "cols": int(mat.shape[1]),
            "selection_cached": cached,
        }

    # -- request processing ------------------------------------------------

    def _take(self, conn, data: bytes, records, targets) -> bool:
        """Answer one parse's frames in order: each run of consecutive
        sweep requests the intake read is admitted and queued as it
        stands (:meth:`_queue_run`), and any other frame goes through
        ``_frame``.  Every frame of a read arrived at once, so they
        share one arrival time."""
        now = time.monotonic()
        step = protocol.RECORD
        codes = records[2::step]
        declined = codes.count(-1)
        if declined < len(codes):
            # The chunks keep the read for their ids until answered: a
            # copy of its own, not the bytes the socket's receive
            # buffer was shrunk to, which held across batches fragment
            # the heap (+5 MB peak RSS under serve-sweep's load).
            data = bytes(memoryview(data))
        lo = 0
        if declined:
            for i, code in enumerate(codes):
                if code >= 0:
                    continue
                if lo < i:
                    self._queue_run(conn, data, records, targets, lo, i, now)
                lo = i + 1
                if not self._frame(conn, data[records[step * i]:
                                              records[step * i + 1]]):
                    return False
        if lo < len(codes):
            self._queue_run(conn, data, records, targets, lo, len(codes), now)
        return True

    def _queue_run(self, conn, data: bytes, records, targets, lo: int,
                   hi: int, now: float) -> None:
        """Admit and queue records ``lo`` to ``hi``, consecutive sweep
        requests of one read: admission takes a prefix, queued as one
        :class:`SweepChunk` per run of equal ``timeout_ms``, and the
        rest are refused in order."""
        step = protocol.RECORD
        for op, count in _op_counts(records, lo, hi):
            self.metrics.record_request(op, count)
        stop = lo + self._admit(hi - lo)
        start = lo
        while start < stop:
            # A chunk has one deadline: the run is cut where timeout_ms
            # changes, which it seldom does.
            timeout, end = records[step * start + 8], stop
            if records[step * start + 8:step * stop:step].count(
                    timeout) < stop - start:
                end = start + 1
                while end < stop and records[step * end + 8] == timeout:
                    end += 1
            self._queue(SweepChunk(conn, records, data, targets, start, end,
                                   now, self._deadline(now, timeout)))
            start = end
        for i in range(stop, hi):
            self._reject(conn, self._id(data, records, i), self._why())

    def _deadline(self, now: float, timeout_ms) -> float | None:
        """The deadline of a request that arrived at ``now``, from its
        ``timeout_ms`` as validated or as its record holds it: a number,
        none (``None``, ``TIMEOUT_NULL``) or the config default
        (``"unset"``, ``TIMEOUT_UNSET``)."""
        if timeout_ms == "unset" or timeout_ms == protocol.TIMEOUT_UNSET:
            timeout_ms = self.config.default_timeout_ms
        if timeout_ms is None or timeout_ms == protocol.TIMEOUT_NULL:
            return None
        return now + timeout_ms / 1e3

    def _queue(self, chunk: SweepChunk) -> None:
        try:
            self.batcher.submit(chunk)
        except SchedulerStopped as exc:
            self._fail_sweeps(chunk, chunk.lo, chunk.hi, exc)

    def _admit(self, count: int) -> int:
        """Admit the first of ``count`` work requests that fit, and
        count the rest as refused (see :meth:`_refusal`): how many are
        admitted.  Each admitted request then owes its answer."""
        if self._draining:
            admitted = 0
        else:
            room = self.config.max_pending - self._owed
            admitted = max(0, min(count, room))
        self.admitted_total += admitted
        if admitted < count:
            self.rejected[self._why()] += count - admitted
        return admitted

    def _refusal(self) -> str | None:
        """Admit one work request (``None``) or count and return why it
        is refused: the server is draining, or ``max_pending`` answers
        are owed."""
        return None if self._admit(1) else self._why()

    def _why(self) -> str:
        return "draining" if self._draining else "overloaded"

    def admission(self) -> dict:
        """The admission ledger, as ``metrics`` and ``health`` report it."""
        return {
            "max_pending": self.config.max_pending,
            "pending": self._owed,
            "draining": self._draining,
            "admitted_total": self.admitted_total,
            "rejected": dict(self.rejected),
        }

    def _reject(self, conn, req_id, reason: str) -> None:
        """Answer a request admission refused."""
        code = (protocol.UNAVAILABLE if reason == "draining"
                else protocol.OVERLOADED)
        conn.send(self._error(req_id, code, f"request rejected: {reason}"))

    def _answer(self, req_id, op: str, msg: dict, conn) -> None:
        spec = protocol.OPS_BY_NAME.get(op)
        if spec is None:
            conn.send(self._error(
                req_id, protocol.BAD_REQUEST,
                f"unknown op {op!r}; known: "
                f"{tuple(s.name for s in protocol.OPS)}",
            ))
            return
        if spec.kind == "admin":
            conn.send(getattr(self, spec.handler)(req_id))
            return
        # work and control ops both pass admission: control mutates
        # serving state and must be refused while draining exactly
        # like work, and counting it keeps the drain loop exact.
        reason = self._refusal()
        if reason is not None:
            self._reject(conn, req_id, reason)
            return
        now = time.monotonic()
        if op in _SWEEP_CODES:
            self._run_sweep(conn, req_id, spec, msg, now)
            return
        reply = _Reply(self, conn, req_id, op, now)
        try:
            fields = protocol.validate_request(spec, msg, self.n)
            getattr(self, spec.handler)(reply, fields)
        except Exception as exc:
            reply(exc)

    def _failure(self, req_id, exc: BaseException) -> dict:
        """The error response for a request that ended in ``exc``."""
        if isinstance(exc, (protocol.RequestValidationError, _BadRequest)):
            return self._error(req_id, protocol.BAD_REQUEST, str(exc))
        if isinstance(exc, DeadlineExceeded):
            return self._error(req_id, protocol.DEADLINE, str(exc))
        if isinstance(exc, SchedulerStopped):
            return self._error(req_id, protocol.UNAVAILABLE, str(exc))
        return self._error(req_id, protocol.INTERNAL,
                           f"{type(exc).__name__}: {exc}")

    # -- admin handlers (bound via the op registry) ------------------------

    def _admin_ping(self, req_id) -> dict:
        return protocol.ok_response(req_id, pong=True)

    def _admin_info(self, req_id) -> dict:
        return protocol.ok_response(
            req_id,
            n=self.n,
            m=int(self.graph.m) if self.graph is not None else None,
            protocol_version=protocol.PROTOCOL_VERSION,
            ops=list(protocol.WORK_OPS + protocol.CONTROL_OPS
                     + protocol.ADMIN_OPS),
            metric_generation=self.metric_generation,
            topology_resident=self.topology is not None,
            batch_max=self.config.batch_max,
            max_wait_ms=self.config.max_wait_ms,
            selection_cache=self.config.selection_cache,
            draining=self._draining,
        )

    def _admin_health(self, req_id) -> dict:
        return protocol.ok_response(req_id, **self._health())

    def _admin_metrics(self, req_id) -> dict:
        return protocol.ok_response(
            req_id,
            metrics=self.metrics.snapshot(
                self.admission(), self.selections.snapshot(),
                self.metric_generation,
            ),
        )

    def _health(self) -> dict:
        """Readiness payload: draining or not, plus admission pressure.

        ``uptime_seconds``, ``address`` and ``pid`` are the *generation*
        signals: a router probing this op can tell a replica that
        restarted (uptime moved backwards / new pid) from one that was
        merely slow — a restarted replica has cold caches and deserves
        a warm-up ramp, not full fair-share traffic.
        """
        return {
            "status": "draining" if self._draining else "ok",
            "ready": not self._draining,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "ops": list(protocol.WORK_OPS + protocol.CONTROL_OPS
                        + protocol.ADMIN_OPS),
            "metric_generation": self.metric_generation,
            "topology_resident": self.topology is not None,
            "uptime_seconds": self.metrics.uptime_seconds(),
            "address": f"{self.host}:{self.port}",
            "pid": os.getpid(),
            "admission": self.admission(),
        }

    def _run_sweep(self, conn, req_id, spec, msg: dict, now: float) -> None:
        """Queue a sweep request that came through ``json.loads`` (the
        intake declined it, or there are no kernels) as a one-record
        :class:`SweepChunk`: its id's JSON text is the chunk's data, so
        from here it goes the way an intake-read request goes."""
        try:
            fields = protocol.validate_request(spec, msg, self.n)
        except protocol.RequestValidationError as exc:
            self.metrics.record_latency(spec.name, time.monotonic() - now)
            conn.send(self._failure(req_id, exc))
            return
        code = _SWEEP_CODES[spec.name]
        text = protocol.id_text(req_id)
        targets, a, b = None, 0, 0
        if code == 1:
            targets = array("q", fields["targets"])
            b = len(targets)
        elif code == 2:
            a = min(fields["budget"], _I64_MAX)
        records = array("q", (0, 0, code, 0, len(text), fields["source"],
                              a, b, 0))
        self._queue(SweepChunk(conn, records, text, targets, 0, 1, now,
                               self._deadline(now, fields["timeout_ms"])))

    def _offload(self, pool, reply, fields: dict, compute, *args) -> None:
        """Answer ``reply`` with ``compute(*args)``, run on ``pool``: the
        one way a request leaves the loop.

        When the job starts it skips a reply no longer owed (its client
        went away) and answers one past its deadline with 504; otherwise
        ``compute``'s payload, or the exception it raised, is answered
        through ``reply`` on the loop.
        """
        deadline = self._deadline(reply.t0, fields["timeout_ms"])

        def job():
            if reply.done:
                return None
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                return DeadlineExceeded.queued(now, reply.t0)
            try:
                return compute(*args)
            except Exception as exc:
                return exc

        future = asyncio.get_running_loop().run_in_executor(pool, job)
        future.add_done_callback(lambda f: reply(f.result()))

    def _run_matrix(self, reply, fields: dict) -> None:
        self._offload(self._exclusive, reply, fields, self._matrix_payload,
                      fields["sources"], fields["targets"])

    def _run_query(self, reply, fields: dict) -> None:
        self._offload(self._executor, reply, fields, self._query_payload,
                      fields["source"], fields["target"], fields["stall"])

    def _query_payload(self, source: int, target: int, stall: bool) -> dict:
        """One point-to-point distance (on a query thread).

        Reads ``self.ch`` once: a swap replaces it, and one read pins
        the answer to a single metric generation (old or new, never a
        mix).
        """
        result = ch_query(self.ch, source, target, stall=stall)
        distance = int(result.distance)
        return {
            "distance": distance,
            "reachable": distance < int(INF),
            "settled": int(result.settled_forward + result.settled_backward),
        }

    # -- metric hot swap ---------------------------------------------------

    def _run_swap(self, reply, fields: dict) -> None:
        weights, path = fields["weights"], fields["path"]
        if (weights is None) == (path is None):
            raise _BadRequest(
                "swap_metric takes exactly one of 'weights' (inline base-arc"
                " weights) or 'path' (a saved metric artifact)"
            )
        if self.topology is None:
            raise _BadRequest(
                "this server holds no topology artifact; start it from a "
                "topology + metric (repro serve --topology ...) to enable "
                "swap_metric"
            )
        self._offload(self._exclusive, reply, fields, self._swap_payload,
                      weights, path)

    def _swap_payload(self, weights, path) -> dict:
        """Customize, instantiate and install a new metric's engine (on
        the exclusive thread).

        Sweeps go on being answered on the loop from the old engine
        meanwhile.  Everything is installed here, before the ack is
        written on the loop, so every answer written after the ack comes
        from the new metric.
        """
        from ..ch.customize import customize
        from ..graph.serialize import load_metric

        t0 = time.monotonic()
        if path is not None:
            try:
                metric = load_metric(path, topology=self.topology)
            except (OSError, ValueError) as exc:
                raise _BadRequest(
                    f"cannot load metric {path!r}: {exc}") from exc
        else:
            w = np.asarray(weights, dtype=np.int64)
            if w.shape != (self.topology.num_base_arcs,):
                raise _BadRequest(
                    f"'weights' must have one entry per base arc "
                    f"({self.topology.num_base_arcs}, got {w.size})"
                )
            metric = customize(self.topology, w)
        t1 = time.monotonic()
        new_ch = self.topology.instantiate(metric)
        t2 = time.monotonic()
        engine = PhastEngine(new_ch)
        self._serving = (engine, engine.bind_rows(self._rows))
        # Point-to-point queries read self.ch once each; from here on
        # every new read sees the new metric.
        self.ch = new_ch
        self.metric_generation += 1
        # Cached RPHAST selections embed copied arc lengths, so the
        # whole cache is stale.
        self.selections.clear()
        t3 = time.monotonic()
        return {
            "metric_generation": self.metric_generation,
            "customize_seconds": t1 - t0,
            "instantiate_seconds": t2 - t1,
            "swap_seconds": t3 - t2,
            "source": "artifact" if path is not None else "inline",
        }


class _Reply:
    """The answer an admitted ``query``, ``matrix`` or ``swap_metric``
    request owes its connection.

    Owing it takes the request's admission slot.  Called once, on the
    event-loop thread, with the request's payload or the exception
    that ended it: it settles the answer, which frees the slot, records
    the latency and writes the response frame.  A dropped connection
    cancels it instead, which frees the slot at once, and a job not yet
    started then skips its work.  Either way the answer is settled
    exactly once.
    """

    __slots__ = ("service", "conn", "req_id", "op", "t0", "done")

    def __init__(self, service: PhastService, conn, req_id, op: str,
                 t0: float) -> None:
        self.service = service
        self.conn = conn
        self.req_id = req_id
        self.op = op
        self.t0 = t0
        self.done = False
        conn.owe(self)

    def __call__(self, outcome) -> None:
        if self.done:
            return
        self.cancel()
        self.service.metrics.record_latency(self.op,
                                            time.monotonic() - self.t0)
        if isinstance(outcome, BaseException):
            response = self.service._failure(self.req_id, outcome)
        else:
            if self.op == "matrix":
                self.service.metrics.record_matrix(
                    outcome["rows"] * outcome["cols"])
            response = protocol.ok_response(self.req_id, **outcome)
        self.conn.send(response)

    def cancel(self) -> None:
        if not self.done:
            self.done = True
            self.conn.settle(self)


def _op_counts(records, lo: int, hi: int) -> list[tuple[str, int]]:
    """Each sweep op among records ``lo`` to ``hi``, with its count."""
    step = protocol.RECORD
    if hi - lo == 1:
        return [(_SWEEP_OPS[records[step * lo + 2]], 1)]
    codes = records[step * lo + 2:step * hi:step]
    return [(op, codes.count(code)) for code, op in enumerate(_SWEEP_OPS)
            if code in codes]


# ---------------------------------------------------------------------------
# Thread-hosted serving (tests, benchmarks, notebooks)


class ServerHandle(FrameHandle):
    """A service running on a private event loop in a daemon thread."""

    @property
    def service(self) -> PhastService:
        return self.server


def serve_in_thread(
    service: PhastService, *, host: str = "127.0.0.1", port: int = 0,
    start_timeout: float = 60.0,
) -> ServerHandle:
    """Start ``service`` on a fresh event loop in a daemon thread.

    ``port=0`` binds an ephemeral port; read it back from
    ``handle.port``.  The thread exits once the service has drained.
    """
    return run_in_thread(service, ServerHandle, host=host, port=port,
                         start_timeout=start_timeout, name="phast-server")
