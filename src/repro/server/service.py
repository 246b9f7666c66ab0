"""The asyncio TCP query service over a warm :class:`PhastPool`.

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
    hash, published to the pool workers as a retireable shared-memory
    segment, and swept in multi-source lane groups chunked over the
    workers.  Rides the batcher as an *exclusive* request so every pool
    access stays serialized by the one dispatch loop.
``ping`` / ``info`` / ``metrics`` / ``health``
    Liveness, instance facts, serving statistics, and readiness (pool
    live-worker count, restart/retry/quarantine counters, queue depth).

The event loop parses frames and answers each without a task of its
own: admin ops reply at once, batcher ops carry a reply callback, and
``query`` replies from its executor future's done-callback.  On the
in-process (serial) pool the batcher runs each sweep batch on the loop
thread as well — the k-lane sweep, each finalize (the answer's arrays
written as JSON text by :func:`protocol.int_array`) and each frame's
encoding — because handing a batch to another thread costs more than
it overlaps when both threads contend for one GIL.  Point-to-point
queries, batches holding an exclusive request and every batch for a
worker pool run on a small thread pool.  Sweeps are serialized by the
batcher (`PhastPool` is single-caller); point-to-point queries run
concurrently — they touch only their own heaps and dicts.

Connections and shutdown follow the shared
:class:`~repro.server.listener.FrameServer`: the drain refuses new work
with 503, lets admitted requests finish, stops the scheduler and closes
the pool (unlinking its shared memory) before the last connections.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..ch.query import ch_query
from ..core.pool import PhastPool
from ..core.rphast import RPhastEngine, SelectionCache
from ..core.supervisor import ChunkQuarantined, PoolBroken
from ..graph.csr import INF
from . import protocol
from .admission import AdmissionController
from .listener import FrameHandle, FrameServer, run_in_thread
from .metrics import ServerMetrics
from .scheduler import (
    DeadlineExceeded,
    MicroBatcher,
    SchedulerStopped,
    SweepRequest,
)

__all__ = ["ServerConfig", "PhastService", "ServerHandle", "serve_in_thread"]

#: Threads for point-to-point queries, exclusive requests and
#: worker-pool batches.
EXECUTOR_THREADS = 4
#: Per-engine upward search cache for matrix sources (entries).
MATRIX_SEARCH_CACHE = 256


@dataclass
class ServerConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 7171
    #: Lane cap per dispatched sweep, and the pool's ``sources_per_sweep``.
    batch_max: int = 16
    #: Cap on the batch window in milliseconds (0 disables the window).
    max_wait_ms: float = 2.0
    #: Admission bound on in-flight work requests.
    max_pending: int = 256
    #: Default per-request deadline; ``None`` disables deadlines.
    default_timeout_ms: float | None = 30_000.0
    #: Pool workers (1 = in-process serial pool, the single-host default).
    num_workers: int | None = 1
    #: Spawn pool worker processes even on a single-CPU host.
    force_pool: bool = False
    #: Engine-side LRU of upward search spaces (entries; 0 disables).
    #: Repeat origins — depots, hubs, popular tiles — skip the
    #: per-source CH search entirely on a hit.
    search_cache: int = 1024
    #: Pool supervisor scan period (worker-death detection latency).
    heartbeat_interval_ms: float = 200.0
    #: Per-chunk wall-clock deadline for wedged-worker reclaim
    #: (``None`` disables; size well above the slowest honest chunk).
    chunk_timeout_ms: float | None = None
    #: How often the degraded-admission loop samples pool capacity.
    health_poll_ms: float = 250.0
    #: LRU capacity of the RPHAST selection cache (distinct target
    #: sets with warm restricted structures + live pool publications).
    selection_cache: int = 32

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.search_cache < 0:
            raise ValueError("search_cache must be >= 0")
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be > 0")
        if self.chunk_timeout_ms is not None and self.chunk_timeout_ms <= 0:
            raise ValueError("chunk_timeout_ms must be > 0 (or None)")
        if self.health_poll_ms <= 0:
            raise ValueError("health_poll_ms must be > 0")
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
        self.graph = graph
        self.admission = AdmissionController(self.config.max_pending)
        self.pool = PhastPool(
            ch,
            num_workers=self.config.num_workers,
            sources_per_sweep=self.config.batch_max,
            force_pool=self.config.force_pool,
            search_cache=self.config.search_cache,
            heartbeat_interval=self.config.heartbeat_interval_ms / 1e3,
            chunk_timeout=(None if self.config.chunk_timeout_ms is None
                           else self.config.chunk_timeout_ms / 1e3),
        )
        # RPHAST selections for the matrix op: LRU of
        # (frozen engine, pool publication handle) keyed by target-set
        # hash.  Touched only by exclusive batcher requests, which run
        # one at a time, so no locking is needed; eviction retires the
        # selection's shared-memory segment.
        self.selections = SelectionCache(
            self.config.selection_cache, on_evict=self._retire_selection
        )
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS,
            thread_name_prefix="phast-serve",
        )
        self.batcher = MicroBatcher(
            self.pool.trees,
            executor=self._executor,
            on_loop=self.pool.serial,
            batch_max=self.config.batch_max,
            max_wait_ms=self.config.max_wait_ms,
            metrics=self.metrics,
        )

    # -- lifecycle (the FrameServer steps) ---------------------------------

    async def _prepare(self) -> None:
        # Warm the sweep path so the first client doesn't pay for lazy
        # buffer allocation.
        self.pool.trees([0])
        self.batcher.start()

    async def _monitor(self) -> None:
        """Feed pool liveness into admission (degraded mode)."""
        period = self.config.health_poll_ms / 1e3
        while True:
            try:
                self.admission.set_capacity(self.pool.capacity_fraction())
            except Exception:
                pass  # never let a glitch kill the feedback loop
            await asyncio.sleep(period)

    def _begin_drain(self) -> None:
        # Refused at admission from here on, so the drain's wait for
        # in-flight requests terminates.
        self.admission.start_draining()

    async def _release(self) -> None:
        await self.batcher.stop()
        self._executor.shutdown(wait=True)
        self.selections.clear()
        self.pool.close()

    # -- matrix plumbing ---------------------------------------------------

    def _retire_selection(self, key: str, entry: tuple) -> None:
        """Selection-cache eviction hook: unlink the pool publication."""
        _engine, (name, _specs) = entry
        self.pool.retire_publication(name)

    def _selection(self, targets: np.ndarray) -> tuple:
        """The cached (engine, publication) for a target set, built on miss.

        Runs only inside an exclusive batcher request, which serializes
        cache access and pool publication.  Keys are prefixed with the
        metric generation: a selection embeds copied arc weights, so an
        entry built under generation g must never answer a request under
        generation g+1.
        """
        key = (f"g{self.pool.metric_generation}:"
               + SelectionCache.key_of(targets))
        entry = self.selections.get(key)
        if entry is None:
            engine = RPhastEngine(self.ch, targets).freeze()
            publication = self.pool.publish_arrays(engine.selection_arrays())
            entry = (engine, publication)
            self.selections.put(key, entry)
        return entry

    def _matrix_payload(self, sources: list[int], targets: list[int]) -> dict:
        """Compute one k×m matrix (executor thread, exclusive dispatch)."""
        hits_before = self.selections.hits
        t_arr = np.asarray(targets, dtype=np.int64)
        engine, publication = self._selection(t_arr)
        cached = self.selections.hits > hits_before
        rows = self.pool.matrix(
            sources,
            selection=publication,
            search_cache=MATRIX_SEARCH_CACHE,
        )
        # Rows come back aligned to the engine's deduplicated, sorted
        # target set; re-map to the request's column order.
        cols = np.searchsorted(engine.targets, t_arr)
        mat = rows[:, cols]
        self.metrics.record_matrix(mat.size)
        return {
            "matrix": protocol.int_array(mat),
            "rows": int(mat.shape[0]),
            "cols": int(mat.shape[1]),
            "selection_cached": cached,
        }

    # -- request processing ------------------------------------------------

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
        reason = self.admission.try_acquire()
        if reason is not None:
            code = (protocol.UNAVAILABLE
                    if reason == AdmissionController.DRAINING
                    else protocol.OVERLOADED)
            conn.send(self._error(req_id, code, f"request rejected: {reason}"))
            return
        reply = _Reply(self, conn, req_id, op)
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
        if isinstance(exc, PoolBroken):
            # No workers and no respawn budget: the instance can't do
            # sweep work anymore — clients should fail over.
            return self._error(req_id, protocol.UNAVAILABLE,
                               f"PoolBroken: {exc}")
        if isinstance(exc, ChunkQuarantined):
            return self._error(req_id, protocol.INTERNAL,
                               f"ChunkQuarantined: {exc}")
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
            metric_generation=self.pool.metric_generation,
            topology_resident=self.topology is not None,
            batch_max=self.config.batch_max,
            max_wait_ms=self.config.max_wait_ms,
            workers=self.pool.num_workers,
            serial_pool=self.pool.serial,
            selection_cache=self.config.selection_cache,
            draining=self._draining,
        )

    def _admin_health(self, req_id) -> dict:
        return protocol.ok_response(req_id, **self._health())

    def _admin_metrics(self, req_id) -> dict:
        pool_health = self.pool.health()
        return protocol.ok_response(
            req_id,
            metrics=self.metrics.snapshot(
                admission=self.admission.snapshot(),
                selection_cache=self.selections.snapshot(),
                pool={
                    "workers": self.pool.num_workers,
                    "serial": self.pool.serial,
                    "batches_run": self.pool.batches_run,
                    "trees_computed": self.pool.trees_computed,
                    "alive": pool_health["workers_alive"],
                    "deaths": pool_health["deaths"],
                    "restarts": pool_health["restarts"],
                    "wedged": pool_health["wedged"],
                    "chunk_retries": pool_health["chunk_retries"],
                    "chunks_quarantined": pool_health["chunks_quarantined"],
                },
            ),
        )

    def _health(self) -> dict:
        """Readiness payload: pool liveness + admission pressure.

        ``uptime_seconds``, ``address`` and ``pid`` are the *generation*
        signals: a router probing this op can tell a replica that
        restarted (uptime moved backwards / new pid) from one that was
        merely slow — a restarted replica has cold caches and deserves
        a warm-up ramp, not full fair-share traffic.
        """
        pool_health = self.pool.health()
        capacity = self.pool.capacity_fraction()
        if self._draining:
            status = "draining"
        elif capacity >= 1.0:
            status = "ok"
        elif capacity > 0.0:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "ready": not self._draining and capacity > 0.0,
            "capacity": capacity,
            "protocol_version": protocol.PROTOCOL_VERSION,
            "ops": list(protocol.WORK_OPS + protocol.CONTROL_OPS
                        + protocol.ADMIN_OPS),
            "metric_generation": self.pool.metric_generation,
            "topology_resident": self.topology is not None,
            "uptime_seconds": self.metrics.uptime_seconds(),
            "address": f"{self.host}:{self.port}",
            "pid": os.getpid(),
            "pool": pool_health,
            "admission": self.admission.snapshot(),
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
        deadline = self._deadline(fields)
        source = fields["source"]
        if op == "tree":
            finalize = _finalize_tree
        elif op == "one_to_many":
            idx = np.asarray(fields["targets"], dtype=np.int64)
            finalize = lambda row, idx=idx: {
                "dist": protocol.int_array(row[idx])}
        else:  # isochrone
            budget = fields["budget"]
            finalize = lambda row, budget=budget: _finalize_isochrone(row, budget)
        self.batcher.submit(
            SweepRequest(op, source, finalize, reply, deadline=deadline)
        )

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
        # strictly between micro-batches — the quiesce point the pool's
        # swap_metric() requires.  Queued sweeps before it finish on
        # the old metric; sweeps after it run on the new one.
        self.batcher.submit(SweepRequest(
            "swap_metric", -1, None, reply, deadline=deadline,
            execute=lambda: self._swap_payload(weights, path),
        ))

    def _swap_payload(self, weights, path) -> dict:
        """Customize + instantiate + pool swap (executor thread, exclusive)."""
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
        generation = self.pool.swap_metric(new_ch)
        # Point-to-point queries capture self.ch per request; from here
        # on every new capture sees the new metric.
        self.ch = new_ch
        # Published RPHAST selections embed copied arc lengths, so the
        # whole cache is stale: clearing retires every publication
        # (via on_evict) and the generation-prefixed keys below make a
        # post-swap request rebuild rather than resurrect by hash.
        self.selections.clear()
        t3 = time.monotonic()
        self.metrics.record_swap(generation)
        return {
            "metric_generation": generation,
            "customize_seconds": t1 - t0,
            "instantiate_seconds": t2 - t1,
            "swap_seconds": t3 - t2,
            "source": "artifact" if path is not None else "inline",
        }


class _Reply:
    """The answer an admitted request owes its connection.

    Called once, on the event-loop thread, with the request's payload
    or the exception that ended it: it releases the admission slot,
    records the latency and writes the response frame.  A dropped
    connection cancels it instead, which releases the slot at once and
    turns a queued sweep request dead, so its lane is dropped.  Either
    way the slot is released exactly once.
    """

    __slots__ = ("service", "conn", "req_id", "op", "t0", "done")

    def __init__(self, service: PhastService, conn, req_id, op: str) -> None:
        self.service = service
        self.conn = conn
        self.req_id = req_id
        self.op = op
        self.t0 = time.monotonic()
        self.done = False
        conn.owe(self)

    def __call__(self, outcome) -> None:
        if self.done:
            return
        self._finish()
        service = self.service
        if isinstance(outcome, BaseException):
            response = service._failure(self.req_id, outcome)
        else:
            response = protocol.ok_response(self.req_id, **outcome)
        service.metrics.record_latency(self.op, time.monotonic() - self.t0)
        self.conn.send(response)

    def cancel(self) -> None:
        if not self.done:
            self._finish()

    def _finish(self) -> None:
        self.done = True
        self.service.admission.release()
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


def _finalize_tree(row: np.ndarray) -> dict:
    return {"dist": protocol.int_array(row)}


def _finalize_isochrone(row: np.ndarray, budget: int) -> dict:
    vertices = np.flatnonzero(row <= budget)
    return {"vertices": protocol.int_array(vertices),
            "count": int(vertices.size)}


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
