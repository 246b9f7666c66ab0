"""The asyncio TCP query service over one in-process :class:`PhastEngine`.

One process, one preprocessed hierarchy, four query types:

``query``
    Point-to-point distance via the bidirectional CH search — already
    sub-millisecond alone, so these bypass the batcher and run straight
    on the executor.
``tree`` / ``one_to_many`` / ``isochrone``
    All sweep-shaped (each needs one source's full distance row); they
    enter the :class:`~repro.server.scheduler.MicroBatcher` and ride a
    shared k-lane sweep, differing only in how the row is post-processed
    (whole row / gather at targets / threshold).
``matrix``
    k×m travel-time matrices.  The restricted (RPHAST) selection for
    the target set is built once, cached in an LRU keyed by target-set
    hash, and swept in multi-source lane groups.  Rides the batcher as
    an *exclusive* request, so the selection cache is touched by one
    dispatch at a time.
``ping`` / ``info`` / ``metrics`` / ``health``
    Liveness, instance facts, serving statistics, and readiness
    (draining or not, admission pressure, generation signals).

The event loop parses frames and answers each without a task of its
own.  One native call per socket read splits the frames and reads the
sweep requests among them (:func:`protocol.parse_requests`), which go
to the batcher without becoming dicts; every other frame is decoded
by ``json.loads``.  Admin ops reply at once, batcher ops carry a reply
callback, and ``query`` replies from its executor future's
done-callback.  The
batcher runs each sweep batch on the loop thread as well — the k-lane
sweep (one native call), then every answer frame of the batch (one
native call, :func:`protocol.sweep_frames`), each connection's frames
in one transport write — because handing a batch to another thread
costs more than it overlaps when both threads contend for one GIL.
Point-to-point queries and batches holding an exclusive request run
on a small thread pool.
Sweeps are serialized by the batcher (the engine is single-caller);
point-to-point queries run concurrently — they touch only their own
heaps and dicts.  More cores serve through replicas behind
``repro route``.

Connections and shutdown follow the shared
:class:`~repro.server.listener.FrameServer`: the drain refuses new work
with 503, lets admitted requests finish and stops the scheduler before
the last connections close.
"""

from __future__ import annotations

import asyncio
import os
import time
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
    SweepRequest,
)

__all__ = ["ServerConfig", "PhastService", "ServerHandle", "serve_in_thread"]

#: Threads for point-to-point queries and exclusive requests.
EXECUTOR_THREADS = 4
#: Per-engine upward search cache for matrix sources (entries).
MATRIX_SEARCH_CACHE = 256
#: The sweep ops by intake op code.
_SWEEP_OPS = ("tree", "one_to_many", "isochrone")


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
        self.engine = PhastEngine(ch)
        # One reused output buffer: each batch's rows are answered
        # before the next batch overwrites them.  The engine takes its
        # address once; a batch of k writes the prefix view of k rows.
        self._rows = np.empty((self.config.batch_max, self.n), dtype=np.int64)
        self._row_views = self.engine.bind_rows(self._rows)
        #: Monotone counter bumped by every ``swap_metric``.
        self.metric_generation = 0
        #: Distance rows the batcher's sweeps have computed.
        self.trees_computed = 0
        # RPHAST selections for the matrix op, keyed by target-set
        # hash.  Touched only by exclusive batcher requests, which run
        # one at a time, so no locking is needed.
        self.selections = SelectionCache(self.config.selection_cache)
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="phast-serve",
        )
        self.batcher = MicroBatcher(
            self._sweep,
            self._answer_sweeps,
            executor=self._executor,
            batch_max=self.config.batch_max,
            max_wait_ms=self.config.max_wait_ms,
            metrics=self.metrics,
        )

    # -- lifecycle (the FrameServer steps) ---------------------------------

    async def _prepare(self) -> None:
        # Warm the sweep path so the first client doesn't pay for lazy
        # buffer allocation.
        self.engine.trees([0], out=self._row_views[1])
        self.batcher.start()

    async def _release(self) -> None:
        await self.batcher.stop()
        self._executor.shutdown(wait=True)
        self.selections.clear()

    # -- sweeps and matrices -----------------------------------------------

    def _sweep(self, sources: list[int]) -> np.ndarray:
        """One batch's rows (the batcher's ``sweep_fn``, on the loop).

        Reads ``self.engine`` per call, so a batch after a swap runs
        on the new metric's engine.
        """
        rows = self.engine.trees(sources, out=self._row_views[len(sources)])
        self.trees_computed += len(sources)
        return rows

    def _answer_sweeps(self, requests: list, lanes: list[int],
                       rows: np.ndarray) -> None:
        """Answer one batch's sweep requests (the batcher's
        ``answer_fn``, on the loop).

        Every frame is written by one call
        (:func:`protocol.sweep_frames`), with each connection's frames
        side by side, and each connection gets them in one write.  A
        frame over the cap is replaced by a 500 error naming its size.
        """
        by_conn: dict = {}
        for req, lane in zip(requests, lanes):
            by_conn.setdefault(req.reply.conn, []).append((req, lane))
        frames, ends = protocol.sweep_frames(rows, [
            (lane, req.op, req.arg, req.reply.req_id)
            for group in by_conn.values() for req, lane in group])
        i = end = 0
        for conn, group in by_conn.items():
            parts, start = [], end
            for req, _ in group:
                begin, end = end, ends[i]
                i += 1
                # The body is the frame less its 4-byte length header.
                too_large = protocol.frame_too_large(end - begin - 4)
                if too_large:
                    parts += (frames[start:begin], protocol.encode_message(
                        self._error(req.reply.req_id, protocol.INTERNAL,
                                    too_large)))
                    start = end
                req.reply.answered()
            parts.append(frames[start:end])
            conn.write(b"".join(parts))

    def _matrix_payload(self, sources: list[int], targets: list[int]) -> dict:
        """Compute one k×m matrix (executor thread, exclusive dispatch).

        The selection embeds copied arc weights; ``swap_metric`` clears
        the cache, and both run as exclusive requests, so a cached
        selection always belongs to the current metric.
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

    def _take(self, conn, data: bytes, records: list[int], targets) -> bool:
        """Answer one parse's frames in order: a sweep request the
        intake read becomes its :class:`SweepRequest` at once (its id
        kept as the JSON text it came in, targets as int64), and any
        other frame goes through ``_frame``.  Every frame of a read
        arrived at once, so they share one arrival time."""
        now = time.monotonic()
        counts = [0, 0, 0]
        refusal, submit = self._refusal, self.batcher.submit
        encoded, step = protocol.encoded, protocol.RECORD
        unset, null = protocol.TIMEOUT_UNSET, protocol.TIMEOUT_NULL
        timeout_ms = self.config.default_timeout_ms
        default_deadline = (None if timeout_ms is None
                            else now + timeout_ms / 1e3)
        try:
            for i in range(0, len(records), step):
                start, end, code, id_start, id_end, source, a, b, timeout = \
                    records[i:i + step]
                if code < 0:
                    if not self._frame(conn, data[start:end]):
                        return False
                    continue
                counts[code] += 1
                req_id = encoded(data[id_start:id_end])
                reason = refusal()
                if reason is not None:
                    self._reject(conn, req_id, reason)
                    continue
                op = _SWEEP_OPS[code]
                reply = _Reply(self, conn, req_id, op, now)
                if timeout == unset:
                    deadline = default_deadline
                elif timeout == null:
                    deadline = None
                else:
                    deadline = now + timeout / 1e3
                try:
                    submit(SweepRequest(
                        op, source,
                        targets[a:b] if code == 1 else a if code == 2 else None,
                        reply, deadline, now))
                except Exception as exc:
                    reply(exc)
            return True
        finally:
            for op, count in zip(_SWEEP_OPS, counts):
                if count:
                    self.metrics.record_request(op, count)

    def _refusal(self) -> str | None:
        """Admit one work request (``None``) or count and return why it
        is refused: the server is draining, or ``max_pending`` answers
        are owed.  The request's reply then owes its answer."""
        if self._draining:
            reason = "draining"
        elif self._owed >= self.config.max_pending:
            reason = "overloaded"
        else:
            self.admitted_total += 1
            return None
        self.rejected[reason] += 1
        return reason

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
        reply = _Reply(self, conn, req_id, op, time.monotonic())
        try:
            fields = protocol.validate_request(spec, msg, self.n)
            getattr(self, spec.handler)(reply, op, fields)
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

    def _deadline(self, fields: dict) -> float | None:
        """Absolute deadline of a request from its validated
        ``timeout_ms`` (``"unset"`` means the config default)."""
        timeout_ms = fields["timeout_ms"]
        if timeout_ms == "unset":
            timeout_ms = self.config.default_timeout_ms
        if timeout_ms is None:
            return None
        return time.monotonic() + float(timeout_ms) / 1e3

    def _run_sweep(self, reply, op: str, fields: dict) -> None:
        # What the answer needs besides the row (see sweep_frames).
        arg = {"tree": None, "one_to_many": fields.get("targets"),
               "isochrone": fields.get("budget")}[op]
        self.batcher.submit(SweepRequest(
            op, fields["source"], arg, reply, deadline=self._deadline(fields)))

    def _run_matrix(self, reply, op: str, fields: dict) -> None:
        deadline = self._deadline(fields)
        sources, targets = fields["sources"], fields["targets"]
        self.batcher.submit(SweepRequest(
            "matrix", -1, None, reply, deadline=deadline,
            execute=lambda: self._matrix_payload(sources, targets),
        ))

    def _run_query(self, reply, op: str, fields: dict) -> None:
        deadline = self._deadline(fields)
        source, target = fields["source"], fields["target"]
        stall = fields["stall"]
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded("deadline exceeded on arrival")
        # Capture the hierarchy once: a concurrent swap_metric replaces
        # self.ch, and reading it exactly once pins this answer to a
        # single metric generation (old or new, never a mix).
        ch = self.ch
        future = asyncio.get_running_loop().run_in_executor(
            self._executor,
            lambda: ch_query(ch, source, target, stall=stall),
        )
        future.add_done_callback(lambda f: reply(_query_outcome(f)))

    # -- metric hot swap ---------------------------------------------------

    def _run_swap(self, reply, op: str, fields: dict) -> None:
        deadline = self._deadline(fields)
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
        # Exclusive batcher request: runs alone on an executor thread,
        # strictly between micro-batches.  Queued sweeps before it
        # finish on the old metric; sweeps after it run on the new one.
        self.batcher.submit(SweepRequest(
            "swap_metric", -1, None, reply, deadline=deadline,
            execute=lambda: self._swap_payload(weights, path),
        ))

    def _swap_payload(self, weights, path) -> dict:
        """Customize + instantiate + engine swap (executor thread, exclusive)."""
        from ..ch.customize import customize
        from ..graph.serialize import load_metric

        t0 = time.monotonic()
        if path is not None:
            metric = load_metric(path, topology=self.topology)
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
        self._row_views = engine.bind_rows(self._rows)
        self.engine = engine
        self.metric_generation += 1
        # Point-to-point queries capture self.ch per request; from here
        # on every new capture sees the new metric.
        self.ch = new_ch
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
    """The answer an admitted request owes its connection.

    Owing it takes the request's admission slot.  Called once, on the
    event-loop thread, with the request's payload or the exception
    that ended it: it settles the answer, which frees the slot, records
    the latency and writes the response frame.  A sweep batch writes
    its requests' frames itself and calls :meth:`answered`.  A dropped
    connection cancels it instead, which frees the slot at once and
    turns a queued sweep request dead, so its lane is dropped.  Either
    way the answer is settled exactly once.
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
        self.answered()
        if isinstance(outcome, BaseException):
            response = self.service._failure(self.req_id, outcome)
        else:
            if self.op == "matrix":
                self.service.metrics.record_matrix(
                    outcome["rows"] * outcome["cols"])
            response = protocol.ok_response(self.req_id, **outcome)
        self.conn.send(response)

    def answered(self) -> None:
        """Finish the answer; the caller writes its frame."""
        self._finish()
        self.service.metrics.record_latency(self.op,
                                            time.monotonic() - self.t0)

    def cancel(self) -> None:
        if not self.done:
            self._finish()

    def _finish(self) -> None:
        self.done = True
        self.conn.settle(self)


def _query_outcome(future) -> dict | BaseException:
    exc = future.exception()
    if exc is not None:
        return exc
    result = future.result()
    distance = int(result.distance)
    return {
        "distance": distance,
        "reachable": distance < int(INF),
        "settled": int(result.settled_forward + result.settled_backward),
    }


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
