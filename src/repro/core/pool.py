"""Persistent shared-memory batch execution (the PHAST "server" layer).

Sections V and VII of the paper share one shape: millions of
independent shortest path trees over a single read-only hierarchy.
The original ``trees_per_core`` driver paid three avoidable costs on
every call: it forked a fresh process pool, rebuilt every worker's
:class:`~repro.core.phast.PhastEngine` (a full
:class:`~repro.core.sweep.SweepStructure` sort), and pickled an
n-length ``int64`` array per source back through a pipe.

:class:`PhastPool` keeps the whole apparatus resident instead:

* **Publish once** — the hierarchy's flat arrays (sweep structure,
  upward graph, plus any application CSR graphs and auxiliary arrays)
  are copied into one ``multiprocessing.shared_memory`` segment at
  pool construction.  Workers attach by name and wrap zero-copy NumPy
  views, so the scheme works identically under ``fork`` and ``spawn``
  and never duplicates the hierarchy through copy-on-write page
  faults.
* **Write in place** — full-distance batches land in a shared output
  matrix (one row per source) written directly by the workers; no
  per-source pickling.
* **Warm engines, balanced dispatch** — each worker builds its engine
  once at boot and keeps it across batches, sweeping ``k`` sources per
  pass (the Section IV-B lanes).  The parent hands chunks out over
  per-worker pipes with a small prefetch, topping workers up as
  results return — the load balance of a shared queue without shared
  locks a dying worker could wedge.
* **In-worker reducers** — a :class:`TreeReducer` folds every tree
  into a small per-worker state (max for diameter, flag ORs for arc
  flags, partial sums for betweenness) that is merged in the parent,
  so APSP-scale runs never materialize ``n × n`` distances.

* **Supervised workers** — a :class:`~repro.core.supervisor.WorkerSupervisor`
  monitor thread watches heartbeats, per-chunk deadlines and
  ``Process.exitcode``; dead or wedged workers are killed and
  respawned (re-attaching to the existing segments) and their
  in-flight chunks are re-dispatched to survivors.  Sweeps are
  deterministic and source-independent, so re-computed chunks are
  bit-identical and a worker crash is invisible to callers.  A chunk
  that repeatedly kills its workers is quarantined with a structured
  :class:`~repro.core.supervisor.ChunkQuarantined` error instead of
  cascading, and every queue operation is deadline-aware, so no
  failure mode can block a batch forever.

The pool is the batch layer the applications
(:mod:`repro.apps.diameter`, :mod:`repro.apps.arcflags`,
:mod:`repro.apps.reach`, :mod:`repro.apps.betweenness`) and the
``trees_per_core`` compatibility shim run on.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Mapping, Sequence

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from ..graph.csr import StaticGraph
from .parallel import resolve_workers
from .phast import PhastEngine
from .rphast import RPhastEngine
from .supervisor import (
    ChunkQuarantined,
    FaultPlan,
    PoolBroken,
    WorkerSupervisor,
    apply_fault,
    parse_fault_plan,
    segment_name,
)
from .sweep import SweepStructure

__all__ = [
    "PhastPool",
    "TaskPool",
    "TaskContext",
    "TreeReducer",
    "WorkerContext",
    "install_signal_guard",
    "ChunkQuarantined",
    "PoolBroken",
    "FaultPlan",
]


# ---------------------------------------------------------------------------
# Teardown guard
#
# A shared-memory segment outlives its creating process unless someone
# unlinks it: a SIGTERM that kills the parent mid-batch would leave the
# published hierarchy (tens of MB at scale) pinned in /dev/shm forever.
# Every live pool registers here; ``atexit`` covers normal interpreter
# exits (including unhandled exceptions), and :func:`install_signal_guard`
# covers hard interrupts for long-lived processes such as ``repro serve``.

_LIVE_POOLS: "weakref.WeakSet[_BasePool]" = weakref.WeakSet()
_GUARDED_SIGNALS: dict = {}


def _close_live_pools(emergency: bool = False) -> None:
    for pool in list(_LIVE_POOLS):
        try:
            if emergency:
                pool._emergency_close()
            else:
                pool.close()
        except Exception:
            pass


atexit.register(_close_live_pools)


def _guard_handler(signum, frame):
    # Emergency path: the interrupted main thread may be parked inside
    # a queue ``put``/``get`` holding that queue's non-reentrant lock,
    # so the graceful close (which talks to workers over those queues)
    # could deadlock the handler.  Kill workers directly and unlink.
    _close_live_pools(emergency=True)
    prev = _GUARDED_SIGNALS.pop(signum, signal.SIG_DFL)
    if callable(prev):
        signal.signal(signum, prev)
        prev(signum, frame)
    elif prev is signal.SIG_IGN:
        signal.signal(signum, prev)
    else:
        # Re-deliver with the default action so exit codes / shell
        # semantics are exactly those of an unguarded process.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def install_signal_guard(signums: Sequence[int] = (signal.SIGINT, signal.SIGTERM)) -> None:
    """Unlink every live pool's segments before dying of a signal.

    Chains to (and then restores) the handler that was installed
    before, so guarded processes keep their normal signal semantics —
    ``SIGINT`` still raises ``KeyboardInterrupt``, ``SIGTERM`` still
    terminates with the conventional exit status.  Idempotent; only
    callable from the main thread (a no-op elsewhere, matching
    ``signal.signal`` rules).
    """
    for signum in signums:
        if signum in _GUARDED_SIGNALS:
            continue
        try:
            prev = signal.getsignal(signum)
            signal.signal(signum, _guard_handler)
        except (ValueError, OSError):  # non-main thread / exotic signum
            continue
        _GUARDED_SIGNALS[signum] = prev


# ---------------------------------------------------------------------------
# Reducer protocol


class TreeReducer:
    """Fold shortest path trees into a small aggregate, inside workers.

    Subclass and implement the four hooks; instances must be picklable
    (module-level classes with plain attributes), because the reducer
    travels to the workers once per batch.

    ``make_state``/``fold``/``finish`` run in the worker; ``merge``
    runs in the parent over the per-worker results.  ``ctx`` is a
    :class:`WorkerContext` giving access to any CSR graphs and
    auxiliary arrays published at pool construction.
    """

    def make_state(self, ctx: "WorkerContext"):
        """Fresh per-worker accumulator for one batch."""
        raise NotImplementedError

    def fold(self, ctx: "WorkerContext", state, index: int, source: int,
             dist: np.ndarray):
        """Fold one tree (``dist`` indexed by original ID); return state."""
        raise NotImplementedError

    def finish(self, ctx: "WorkerContext", state):
        """Last in-worker step; the return value is pickled to the parent."""
        return state

    def merge(self, states: list):
        """Combine the per-worker results (parent side)."""
        raise NotImplementedError


class WorkerContext:
    """Read-only resources a :class:`TreeReducer` sees inside a worker.

    Attributes
    ----------
    n:
        Vertex count of the hierarchy.
    """

    def __init__(
        self,
        n: int,
        graph_arrays: Mapping[str, tuple],
        extra_arrays: Mapping[str, np.ndarray],
        graphs: Mapping[str, StaticGraph] | None = None,
    ) -> None:
        self.n = n
        self._graph_arrays = dict(graph_arrays)
        self._graphs: dict[str, StaticGraph] = dict(graphs or {})
        self._arrays = dict(extra_arrays)

    def graph(self, name: str) -> StaticGraph:
        """A CSR graph published at pool construction (zero-copy view)."""
        if name not in self._graphs:
            if name not in self._graph_arrays:
                raise KeyError(
                    f"graph {name!r} was not published to this pool; pass it "
                    "via PhastPool(..., graphs={...})"
                )
            first, head, lens = self._graph_arrays[name]
            self._graphs[name] = StaticGraph.from_csr(first, head, lens)
        return self._graphs[name]

    def array(self, name: str) -> np.ndarray:
        """An auxiliary array published at pool construction."""
        if name not in self._arrays:
            raise KeyError(
                f"array {name!r} was not published to this pool; pass it "
                "via PhastPool(..., arrays={...})"
            )
        return self._arrays[name]


# ---------------------------------------------------------------------------
# Shared-memory publication

#: Byte alignment of every published array inside the segment.
_ALIGN = 64


@dataclass(frozen=True)
class _ArraySpec:
    key: str
    dtype: str
    shape: tuple
    offset: int


def _create_segment(size: int, tag: str | None = None) -> shared_memory.SharedMemory:
    """A fresh segment named ``repro-<pid>[-<tag>]-<hex>`` (see ``repro doctor``).

    The attributable name lets operators match leaked segments to a
    dead creator process; a random-collision retry keeps creation
    robust, falling back to an anonymous kernel-chosen name.
    """
    for _ in range(8):
        try:
            return shared_memory.SharedMemory(
                name=segment_name(tag), create=True, size=max(size, 1)
            )
        except FileExistsError:
            continue
    return shared_memory.SharedMemory(create=True, size=max(size, 1))


def _publish(
    arrays: dict[str, np.ndarray], tag: str | None = None
) -> tuple[shared_memory.SharedMemory, list[_ArraySpec]]:
    """Copy ``arrays`` into one fresh shared-memory segment."""
    specs: list[_ArraySpec] = []
    offset = 0
    normalized = {k: np.ascontiguousarray(a) for k, a in arrays.items()}
    for key, a in normalized.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(_ArraySpec(key, a.dtype.str, a.shape, offset))
        offset += a.nbytes
    shm = _create_segment(offset, tag)
    for spec in specs:
        src = normalized[spec.key]
        view = np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        view[...] = src
    return shm, specs


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Python < 3.13 registers every attached segment with the resource
    tracker, which would try to unlink it again when the *worker*
    exits.  The parent owns the segment, so attaching must not
    register: sending ``unregister`` afterwards instead would also
    cancel the *parent's* registration under ``fork`` (one shared
    tracker), making the parent's eventual unlink complain.
    """
    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


def _views(shm: shared_memory.SharedMemory, specs: Sequence[_ArraySpec]) -> dict[str, np.ndarray]:
    return {
        spec.key: np.ndarray(
            spec.shape, dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        for spec in specs
    }


class TaskContext:
    """What a task-mode worker holds between chunks (see :class:`TaskPool`).

    Attributes
    ----------
    boot:
        Zero-copy views of the arrays published at pool construction.
    state:
        Scratch dict that persists for the worker process's lifetime.
        Handlers memoize expensive derived state here (e.g. the
        preprocessing workers' replica adjacency), keyed by the
        segment names it was built from, so a re-publication
        invalidates it naturally.
    """

    def __init__(
        self,
        boot_views: Mapping[str, np.ndarray],
        local_segments: dict | None = None,
    ) -> None:
        self.boot = dict(boot_views)
        self.state: dict = {}
        self._attached: dict[str, tuple] = {}
        self._local = local_segments

    def attach(self, name: str, specs) -> Mapping[str, np.ndarray]:
        """Views of a :meth:`TaskPool.publish_arrays` segment, cached by name.

        On the serial path (``specs is None``) the "segment" is the
        parent's in-process array dict, returned as-is.
        """
        if self._local is not None and name in self._local:
            return self._local[name]
        entry = self._attached.get(name)
        if entry is None:
            shm = _attach(name)
            entry = (shm, _views(shm, specs))
            self._attached[name] = entry
        return entry[1]

    def release(self, keep: Sequence[str] = ()) -> None:
        """Close attached segments whose names are not in ``keep``.

        Callers must drop their own views (including anything in
        :attr:`state` built over them) first; a still-exported buffer
        keeps the mapping open until the worker exits — harmless once
        the parent unlinked the name, but it holds memory.
        """
        keep_set = set(keep)
        for name in [n for n in self._attached if n not in keep_set]:
            shm, views = self._attached.pop(name)
            views.clear()
            try:
                shm.close()
            except BufferError:
                pass

    def close(self) -> None:
        self.state.clear()
        self.release()


class _WorkerHierarchy:
    """The slice of a hierarchy a pooled engine needs (``n`` + ``G↑``).

    The sweep structure is rebuilt from shared arrays separately, so
    the downward graph and preprocessing metadata never travel to the
    workers; touching them raises instead of silently lying.
    """

    def __init__(self, n: int, upward: StaticGraph) -> None:
        self.n = n
        self.upward = upward

    def __getattr__(self, name: str):
        raise AttributeError(
            f"hierarchy field {name!r} is not published to pool workers "
            "(only n and the upward graph are)"
        )


# ---------------------------------------------------------------------------
# Worker process


def _sweep_keys(sweep: SweepStructure) -> dict[str, np.ndarray]:
    return {
        "sw:pos_of": sweep.pos_of,
        "sw:vertex_at": sweep.vertex_at,
        "sw:level_first": sweep.level_first,
        "sw:arc_first": sweep.arc_first,
        "sw:arc_tail_pos": sweep.arc_tail_pos,
        "sw:arc_len": sweep.arc_len,
        "sw:arc_via": sweep.arc_via,
        "sw:level_of_pos": sweep.level_of_pos,
    }


def _build_worker_state(views: dict[str, np.ndarray], meta: dict):
    """Reconstruct the engine + context from shared-memory views."""
    n = meta["n"]
    sweep = SweepStructure.from_arrays(
        n=n,
        num_levels=meta["num_levels"],
        pos_of=views["sw:pos_of"],
        vertex_at=views["sw:vertex_at"],
        level_first=views["sw:level_first"],
        arc_first=views["sw:arc_first"],
        arc_tail_pos=views["sw:arc_tail_pos"],
        arc_len=views["sw:arc_len"],
        arc_via=views["sw:arc_via"],
        level_of_pos=views["sw:level_of_pos"],
    )
    upward = StaticGraph.from_csr(
        views["up:first"], views["up:arc_head"], views["up:arc_len"]
    )
    ch = _WorkerHierarchy(n, upward)
    engine = PhastEngine(
        ch, sweep=sweep, search_cache=meta.get("search_cache", 0)
    )
    graph_arrays = {
        name: (
            views[f"g:{name}:first"],
            views[f"g:{name}:arc_head"],
            views[f"g:{name}:arc_len"],
        )
        for name in meta["graphs"]
    }
    extra = {name: views[f"a:{name}"] for name in meta["arrays"]}
    ctx = WorkerContext(n, graph_arrays, extra)
    return engine, ctx


#: Per-process LRU cap on rebuilt restricted (RPHAST) engines; bounds
#: how many retired-but-still-attached selection segments a worker pins.
_MATRIX_ENGINE_CACHE = 4


def _restricted_engine(ch, task_ctx: TaskContext, batch: dict) -> RPhastEngine:
    """The restricted engine for a published selection, LRU-cached.

    Cached in ``task_ctx.state`` keyed by segment name: a republished
    target set gets a fresh segment name, so stale engines age out
    naturally, and eviction releases the underlying attachment.
    """
    name = batch["sel_name"]
    cache: OrderedDict = task_ctx.state.setdefault(
        "rphast:engines", OrderedDict()
    )
    eng = cache.get(name)
    if eng is None:
        views = task_ctx.attach(name, batch["sel_specs"])
        eng = RPhastEngine.from_arrays(
            ch, views, search_cache=batch.get("search_cache", 0)
        )
        cache[name] = eng
        while len(cache) > _MATRIX_ENGINE_CACHE:
            cache.popitem(last=False)
        task_ctx.release(keep=cache.keys())
    else:
        cache.move_to_end(name)
    return eng


def _matrix_rows(reng: RPhastEngine, k: int, start: int,
                 chunk: list) -> dict[int, np.ndarray]:
    """Restricted lane sweeps for one chunk of matrix sources.

    Returns per-source target rows keyed by global row index.  Rows are
    |T|-sized and travel back through the result pipe (no shared output
    segment), so a re-dispatched chunk is trivially bit-identical and a
    failed matrix batch needs no writer fencing.
    """
    results: dict[int, np.ndarray] = {}
    for i in range(0, len(chunk), k):
        sub = chunk[i : i + k]
        base = start + i
        if len(sub) == 1:
            results[base] = reng.distances(int(sub[0]))
        else:
            rows = reng.sweep_lanes(sub)
            for j in range(len(sub)):
                results[base + j] = rows[j]
    return results


def _run_chunk(engine: PhastEngine, ctx: WorkerContext, k: int, batch: dict,
               start: int, chunk: list, out: np.ndarray | None,
               task_ctx: TaskContext | None = None):
    """Process one chunk; every chunk is self-contained and restartable.

    Reduce-mode chunks return a *per-chunk* finished state (the app
    reducers' ``merge`` is associative, and the parent merges chunk
    states in chunk order, so the result is deterministic no matter
    which worker ran which chunk or how often one was re-dispatched).
    """
    mode = batch["mode"]
    if mode == "matrix":
        reng = _restricted_engine(engine.ch, task_ctx, batch)
        return _matrix_rows(reng, k, start, chunk)
    if mode == "task":
        fn = batch["fn"]
        common = batch["common"]
        return {
            start + j: fn(ctx, common, item) for j, item in enumerate(chunk)
        }
    reducer: TreeReducer | None = batch.get("reducer")
    fn: Callable | None = batch.get("fn")
    state = reducer.make_state(ctx) if mode == "reduce" else None
    results: dict[int, object] = {}
    count = 0
    for i in range(0, len(chunk), k):
        sub = chunk[i : i + k]
        base = start + i
        if mode == "dist" and len(sub) > 1:
            # Lanes scatter straight into the shared rows: no
            # intermediate per-source array at all.
            engine.trees(sub, out=out[base : base + len(sub)])
            count += len(sub)
            continue
        if len(sub) == 1:
            if mode == "dist":
                engine.tree(sub[0], dist_out=out[base])
                count += 1
                continue
            rows = engine.tree(sub[0]).dist[None, :]
        else:
            rows = engine.trees(sub)
        for j, (s, row) in enumerate(zip(sub, rows)):
            if mode == "reduce":
                state = reducer.fold(ctx, state, base + j, s, row)
            else:
                results[base + j] = fn(s, row)
            count += 1
    if mode == "dist":
        return count
    if mode == "reduce":
        return reducer.finish(ctx, state)
    return results


def _heartbeat_loop(hb, idx: int, interval: float, stop: threading.Event) -> None:
    """Beat-thread body: stamp liveness ~2x per supervisor interval.

    Runs as a daemon thread so the beat continues while the main
    thread is deep inside a NumPy sweep; a process that stops beating
    is genuinely frozen (SIGSTOP, unkillable page-in), not merely busy.
    The stop event is process-local: the beat must never touch shared
    locks, because a SIGKILL landing while a shared semaphore is held
    would wedge every other participant forever.
    """
    while True:
        hb[idx] = time.monotonic()
        if stop.wait(interval):
            return


#: Worker-side poll granularity on the work pipe; bounds how long a
#: shutdown request can go unnoticed.
_WORKER_POLL_S = 0.1


def _pool_worker(slot, incarnation, shm_name, specs, meta, work_conn,
                 result_conn, hb, claims, fault, fault_budget):
    # Transport is a pair of simplex pipes private to this worker: a
    # single reader and single writer per pipe means no shared locks,
    # so a SIGKILL at any instant cannot wedge the pool (unlike a
    # shared mp.Queue, whose internal semaphore dies locked with its
    # holder).  Liveness travels through the lock-free hb/claims
    # arrays instead.
    hb[2 * slot] = time.monotonic()
    beat_stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop,
        args=(hb, 2 * slot, meta["hb_interval"] / 2.0, beat_stop),
        daemon=True,
        name=f"phast-worker-{slot}-heartbeat",
    ).start()
    shm = None
    out_shm: shared_memory.SharedMemory | None = None
    out_name: str | None = None
    try:
        shm = _attach(shm_name)
        views = _views(shm, specs)
        if meta.get("kind") == "task":
            engine, ctx = None, TaskContext(views)
            task_ctx = ctx
        else:
            engine, ctx = _build_worker_state(views, meta)
            # Sweep workers still need a TaskContext: matrix-mode
            # chunks attach published RPHAST selections through it.
            task_ctx = TaskContext(views)
    except BaseException:
        try:
            result_conn.send((None, None, slot, "boot_error",
                              traceback.format_exc()))
        except (OSError, ValueError, BrokenPipeError):
            pass
        return
    k = meta["k"]
    n = meta["n"]
    metric_gen = 0  # boot segment carries generation-0 weights
    metric_shm: shared_memory.SharedMemory | None = None
    try:
        while True:
            if not work_conn.poll(_WORKER_POLL_S):
                continue
            try:
                item = work_conn.recv()
            except (EOFError, OSError):
                break  # parent is gone
            if item is None:  # graceful shutdown
                break
            batch, chunk_id, start, chunk = item
            # Publish the claim BEFORE the start stamp: once the stamp
            # is non-zero the supervisor trusts the claim for poison
            # accounting, so the order must never expose a stale one.
            claims[2 * slot] = batch["id"]
            claims[2 * slot + 1] = chunk_id
            hb[2 * slot + 1] = time.monotonic()
            try:
                apply_fault(fault, fault_budget, slot, chunk_id)
                metric = batch.get("metric")
                if metric is not None and metric[0] != metric_gen:
                    # The batch names a newer metric generation: attach
                    # its weight segment, overlay the metric-dependent
                    # views, and rebuild the engine over them.  This
                    # runs BEFORE any tree of the chunk, and a respawned
                    # worker (booted on generation-0 weights) passes
                    # through here on its first post-swap chunk, so no
                    # chunk is ever computed on a stale metric.
                    gen, mname, mspecs = metric
                    new_mshm = _attach(mname)
                    mviews = _views(new_mshm, mspecs)
                    views.update(mviews)
                    task_ctx.boot.update(mviews)
                    # Restricted engines were built over old weights
                    # (selections embed copied arc lengths): drop them
                    # and their attachments; fresh selections arrive
                    # under new segment names.
                    task_ctx.state.pop("rphast:engines", None)
                    task_ctx.release()
                    if engine is not None:
                        engine, ctx = _build_worker_state(views, meta)
                    if metric_shm is not None:
                        try:
                            metric_shm.close()
                        except BufferError:
                            pass  # a lingering view; freed on exit
                    metric_shm = new_mshm
                    metric_gen = gen
                out = None
                if batch["mode"] == "dist":
                    if batch["out_name"] != out_name:
                        if out_shm is not None:
                            out_shm.close()
                        out_shm = _attach(batch["out_name"])
                        out_name = batch["out_name"]
                    out = np.ndarray(
                        (batch["out_rows"], n), dtype=np.int64,
                        buffer=out_shm.buf,
                    )
                payload = _run_chunk(engine, ctx, k, batch, start, chunk,
                                     out, task_ctx)
                result_conn.send((batch["id"], chunk_id, slot, "ok", payload))
            except (OSError, ValueError, BrokenPipeError):
                break  # parent is gone; nobody to report to
            except BaseException:
                try:
                    result_conn.send((batch["id"], chunk_id, slot, "error",
                                      traceback.format_exc()))
                except (OSError, ValueError, BrokenPipeError):
                    break
            finally:
                hb[2 * slot + 1] = 0.0
    finally:
        beat_stop.set()
        try:
            task_ctx.close()
        except Exception:
            pass
        try:
            if out_shm is not None:
                out_shm.close()
        except BufferError:
            pass
        try:
            if metric_shm is not None:
                metric_shm.close()
        except BufferError:
            pass
        try:
            if shm is not None:
                shm.close()
        except BufferError:
            pass


# ---------------------------------------------------------------------------
# The pool


class _Channel:
    """Parent-side endpoints of one worker incarnation's pipe pair."""

    __slots__ = ("process", "incarnation", "work", "result")

    def __init__(self, process, incarnation: int, work, result) -> None:
        self.process = process
        self.incarnation = incarnation
        self.work = work
        self.result = result

    def alive(self) -> bool:
        return self.process.exitcode is None

    def close(self) -> None:
        for conn in (self.work, self.result):
            try:
                conn.close()
            except OSError:
                pass


class _BasePool:
    """Worker-pool machinery shared by the pool flavours.

    Owns everything that is independent of *what* the workers compute:
    shared-memory publication (boot segment plus retireable
    :meth:`publish_arrays` segments), per-worker simplex pipe pairs,
    the :class:`~repro.core.supervisor.WorkerSupervisor` (heartbeats,
    chunk deadlines, respawn, quarantine), supervised dispatch with
    deterministic re-dispatch of a dead worker's chunks, and teardown
    that can never leak ``/dev/shm`` segments.

    Subclasses supply the boot payload (:meth:`_published_arrays`),
    the worker-side interpretation (:meth:`_worker_meta`, keyed by
    ``meta["kind"]``) and the in-process fallback
    (:meth:`_execute_serial`).
    """

    def _init_base(
        self,
        *,
        num_workers: int | None,
        force_pool: bool,
        chunk_size: int | None,
        heartbeat_interval: float,
        chunk_timeout: float | None,
        max_chunk_retries: int,
        max_respawns: int | None,
        fault_plan: FaultPlan | str | None,
        sources_per_sweep: int = 1,
    ) -> None:
        if max_chunk_retries < 1:
            raise ValueError("max_chunk_retries must be >= 1")
        self.k = int(sources_per_sweep)
        self.chunk_size = chunk_size
        self.batches_run = 0
        self.trees_computed = 0
        self.chunk_retries = 0
        self.chunks_quarantined = 0
        self._closed = False
        self._batch_counter = 0
        self.heartbeat_interval = float(heartbeat_interval)
        self.chunk_timeout = chunk_timeout
        self.max_chunk_retries = int(max_chunk_retries)
        self.max_respawns = max_respawns
        if isinstance(fault_plan, str):
            fault_plan = parse_fault_plan(fault_plan)
        elif fault_plan is None:
            fault_plan = parse_fault_plan(os.environ.get("REPRO_FAULT"))
        self._fault_plan = fault_plan
        self._fault_budget = None
        self._last_boot_error: str | None = None
        self._supervisor: WorkerSupervisor | None = None
        self._channels: list[_Channel | None] = []
        self._inflight = 0
        #: Chunks kept queued per worker beyond the one in flight; keeps
        #: pipes shallow so a dead worker strands at most this many.
        self._prefetch = 2

        if force_pool:
            if num_workers is None:
                num_workers, _ = resolve_workers(None)
            num_workers = max(1, num_workers)
            self._fell_back = False
        else:
            num_workers, self._fell_back = resolve_workers(num_workers)
        self.num_workers = num_workers
        self._serial = num_workers <= 1 and not force_pool

        self._shm: shared_memory.SharedMemory | None = None
        self._out_shm: shared_memory.SharedMemory | None = None
        self._retired: list[shared_memory.SharedMemory] = []
        self._out_rows = 0
        #: Dynamically published segments, by name (publish_arrays).
        self._dynamic: dict[str, shared_memory.SharedMemory] = {}
        #: Serial-path stand-in for dynamic segments: name -> array dict.
        self._local_segments: dict[str, dict[str, np.ndarray]] = {}
        self._local_counter = 0
        #: ``(generation, segment_name, specs)`` of the current metric
        #: overlay, or ``None`` before the first :meth:`swap_metric`.
        #: Rides along in every batch so workers re-point lazily.
        self._metric_handle: tuple[int, str, list] | None = None

    # -- subclass hooks ----------------------------------------------------

    def _published_arrays(self) -> dict[str, np.ndarray]:
        """Arrays to copy into the boot segment workers attach to."""
        raise NotImplementedError

    def _worker_meta(self) -> dict:
        """Picklable worker boot metadata; must carry ``kind``/``k``/``n``."""
        raise NotImplementedError

    def _execute_serial(self, batch: dict, items: list, out=None):
        raise NotImplementedError

    # -- dynamic publications ----------------------------------------------

    def publish_arrays(
        self, arrays: Mapping[str, np.ndarray], *, tag: str | None = None
    ) -> tuple[str, list[_ArraySpec] | None]:
        """Publish named arrays as a fresh, individually retireable segment.

        Returns a ``(name, specs)`` handle that travels to task
        handlers (inside ``common``/items) so they can attach by name
        via :meth:`TaskContext.attach`.  On the serial path the arrays
        are kept in-process under a synthetic name — same handle
        shape, no shared memory, ``specs`` is ``None``.  ``tag``
        embeds a classification token in the segment name
        (``repro-<pid>-<tag>-<hex>``) so ``repro doctor`` can tell
        what a leaked segment was.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._serial:
            self._local_counter += 1
            name = f"local-{self._local_counter}"
            # Copy like the shm path does: a publication is a snapshot,
            # and callers mutate their arrays after publishing.
            self._local_segments[name] = {
                k: np.array(a, order="C") for k, a in arrays.items()
            }
            return name, None
        shm, specs = _publish(dict(arrays), tag)
        self._dynamic[shm.name] = shm
        return shm.name, specs

    def retire_publication(self, name: str) -> None:
        """Unlink a :meth:`publish_arrays` segment (live views stay valid)."""
        if self._serial:
            self._local_segments.pop(name, None)
            return
        shm = self._dynamic.pop(name, None)
        if shm is not None:
            self._retire(shm)

    # -- lifecycle ---------------------------------------------------------

    def _start_workers(self, context: str) -> None:
        import multiprocessing as mp

        ctx = mp.get_context(context)
        self._channels = [None] * self.num_workers
        self._shm, specs = _publish(self._published_arrays())
        meta = self._worker_meta()
        meta["hb_interval"] = self.heartbeat_interval
        if self._fault_plan is not None and self._fault_plan.times is not None:
            # Shared trigger budget: respawned workers see the same
            # counter, so "times=1" means one crash pool-wide, ever.
            self._fault_budget = ctx.Value("i", self._fault_plan.times)
        self._supervisor = WorkerSupervisor(
            ctx,
            self.num_workers,
            heartbeat_interval=self.heartbeat_interval,
            chunk_timeout=self.chunk_timeout,
            max_respawns=self.max_respawns,
        )
        shm_name = self._shm.name
        sup = self._supervisor
        fault, fault_budget = self._fault_plan, self._fault_budget
        channels = self._channels

        def spawn(slot: int, incarnation: int):
            # Simplex pipes, one pair per worker incarnation: the only
            # shared mutable state a worker can die holding is its own
            # channel, which dies with it (kill-safety — see
            # _pool_worker).  Runs in the supervisor thread on respawn;
            # the slot assignment below is atomic, and the batch loop
            # picks the fresh channel up on its next poll.
            work_r, work_w = ctx.Pipe(duplex=False)
            result_r, result_w = ctx.Pipe(duplex=False)
            p = ctx.Process(
                target=_pool_worker,
                args=(
                    slot, incarnation, shm_name, specs, meta, work_r,
                    result_w, sup.hb, sup.claims, fault, fault_budget,
                ),
                daemon=True,
                name=f"phast-pool-worker-{slot}.{incarnation}",
            )
            p.start()
            work_r.close()
            result_w.close()
            channels[slot] = _Channel(p, incarnation, work_w, result_r)
            return p

        sup.start(spawn)

    def close(self) -> None:
        """Shut workers down and unlink every shared-memory segment.

        Idempotent; also invoked by ``__exit__`` and the finalizer, so
        an exception inside a ``with`` block cannot leak ``/dev/shm``
        segments.
        """
        if self._closed:
            return
        self._closed = True
        if not self._serial and self._supervisor is not None:
            self._supervisor.stop()  # no more respawns behind our back
            for ch in self._channels:
                if ch is None:
                    continue
                try:
                    ch.work.send(None)  # graceful shutdown request
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for ch in self._channels:
                if ch is None:
                    continue
                ch.process.join(timeout=10)
                if ch.process.is_alive():
                    ch.process.terminate()
                    ch.process.join(timeout=5)
                ch.close()
        self._unlink_segments()

    def _emergency_close(self) -> None:
        """Signal-safe teardown: kill workers, unlink, touch no queues.

        Runs inside the :func:`install_signal_guard` handler, i.e. on
        top of an interrupted main-thread frame that may hold a queue
        lock mid-``put``.  Everything here is lock-free with respect to
        the queues: ``terminate`` is a plain ``kill(2)``, ``join`` a
        ``waitpid``, and unlinking only touches ``/dev/shm`` names.
        The supervisor is aborted via flags only (no joins), so a
        respawn can't race the teardown.
        """
        if self._closed:
            return
        self._closed = True
        procs = []
        if self._supervisor is not None:
            self._supervisor.abort()
            procs = [ch.process for ch in self._channels if ch is not None]
        for p in procs:
            try:
                p.terminate()
            except Exception:
                pass
        for p in procs:
            try:
                p.join(timeout=5)
                if p.is_alive():
                    p.kill()
                    p.join(timeout=5)
            except Exception:
                pass
        self._unlink_segments()

    def _unlink_segments(self) -> None:
        for shm in (self._shm, self._out_shm, *self._dynamic.values()):
            if shm is not None:
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass
                try:
                    shm.close()
                except BufferError:
                    # A caller still holds a view; the name is already
                    # unlinked, the mapping dies with the last view.
                    pass
        self._dynamic = {}
        self._local_segments = {}
        for shm in self._retired:
            try:
                shm.close()
            except BufferError:
                pass
        self._shm = self._out_shm = None
        self._retired = []

    def _retire(self, shm: shared_memory.SharedMemory) -> None:
        """Unlink a superseded segment, deferring close past live views."""
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        try:
            shm.close()
        except BufferError:
            self._retired.append(shm)

    def __enter__(self) -> "_BasePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    @property
    def serial(self) -> bool:
        """True when batches run in-process (no worker processes)."""
        return self._serial

    @property
    def fell_back(self) -> bool:
        """True when a multi-worker request degraded to serial (1 CPU)."""
        return self._fell_back

    # -- internals ---------------------------------------------------------

    def _chunks(self, sources: list[int]) -> list[tuple[int, list[int]]]:
        size = self.chunk_size
        if size is None:
            per = -(-len(sources) // (self.num_workers * 4))
            size = max(self.k, min(64, per))
            size = self.k * (-(-size // self.k))
        return [
            (i, sources[i : i + size]) for i in range(0, len(sources), size)
        ]

    def _execute(self, batch: dict, sources: list[int], out=None):
        if self._closed:
            raise RuntimeError("pool is closed")
        self.batches_run += 1
        self.trees_computed += len(sources)
        if self._serial:
            return self._execute_serial(batch, sources, out)
        self._batch_counter += 1
        batch = dict(batch)
        batch["id"] = self._batch_counter
        if self._metric_handle is not None:
            # Snapshot the handle into the batch: every chunk of this
            # batch names the same metric generation, so a batch can
            # never mix metrics no matter how chunks are re-dispatched
            # across worker deaths or an interleaved swap.
            batch["metric"] = self._metric_handle
        if batch["mode"] == "dist":
            batch["out_name"] = self._out_shm.name
            batch["out_rows"] = self._out_rows
        payloads = self._run_supervised(batch, self._chunks(sources))
        if batch["mode"] == "dist":
            return None
        return payloads

    def _run_supervised(self, batch: dict, chunks: list) -> list:
        """Dispatch chunks over per-worker pipes; collect under supervision.

        The parent drives dispatch: each live worker holds at most
        ``1 + _prefetch`` chunks (one in flight, the rest queued in its
        pipe), and is topped up as results return, which load-balances
        exactly like a shared queue.  Because assignment is
        parent-side, a dead worker's chunks are known precisely and
        re-dispatched to survivors; quarantine accounting only charges
        the chunk the worker was *actively* computing (its claim), not
        innocent prefetched ones.  Every wait is bounded
        (``connection.wait`` with a timeout), duplicate completions are
        deduplicated by chunk id (first result wins), and reduce-mode
        states merge in chunk order — so results are bit-identical no
        matter how many deaths and re-dispatches occurred.

        A batch that *fails* (quarantine, worker error) does not get
        to leave quietly: for dist mode,
        :meth:`_quiesce_stale_writers` first fences every chunk still
        held by a surviving worker, because those write into the
        shared output segment the next batch will reuse.
        """
        from multiprocessing import connection as _mpconn

        sup = self._supervisor
        sup.pop_events()  # discard deaths that predate this batch
        outstanding: dict[int, tuple[int, list]] = {
            cid: (start, chunk) for cid, (start, chunk) in enumerate(chunks)
        }
        self._inflight = len(outstanding)
        pending = list(sorted(outstanding, reverse=True))  # pop() = lowest cid
        assigned: dict[int, tuple[int, int]] = {}
        load: dict[tuple[int, int], set] = {}
        payloads: dict[int, object] = {}
        deaths: dict[int, int] = {}
        poll = min(0.2, max(0.02, self.heartbeat_interval))

        def fill() -> None:
            for slot, ch in enumerate(self._channels):
                if not pending:
                    return
                if ch is None or not ch.alive():
                    continue
                key = (slot, ch.incarnation)
                held = load.setdefault(key, set())
                while pending and len(held) <= self._prefetch:
                    cid = pending[-1]
                    start, chunk = outstanding[cid]
                    try:
                        ch.work.send((batch, cid, start, chunk))
                    except (OSError, ValueError, BrokenPipeError):
                        break  # dying worker; its DeathEvent requeues
                    pending.pop()
                    assigned[cid] = key
                    held.add(cid)

        try:
            while outstanding:
                fill()
                # Wait only on live workers' pipes: a dead
                # incarnation's result conn sits at EOF — permanently
                # "ready" — so including it would busy-spin the parent
                # for as long as the slot stays dead (the whole batch,
                # once the respawn budget is exhausted).  Dead workers
                # hand their chunks back through DeathEvents instead.
                conns = [
                    ch.result for ch in self._channels
                    if ch is not None and ch.alive()
                ]
                if conns:
                    try:
                        ready = _mpconn.wait(conns, timeout=poll)
                    except OSError:
                        ready = []
                else:
                    time.sleep(poll)  # nothing alive yet: await respawn
                    ready = []
                for conn in ready:
                    while True:
                        try:
                            if not conn.poll(0):
                                break
                            msg = conn.recv()
                        except (EOFError, OSError):
                            break  # dead worker; its DeathEvent follows
                        batch_id, cid, _slot, status, payload = msg
                        if status == "boot_error":
                            self._last_boot_error = payload
                        elif batch_id != batch["id"]:
                            pass  # stale: a superseded earlier batch
                        elif status == "error":
                            raise RuntimeError(
                                "pool worker failed:\n" + payload
                            )
                        elif cid in outstanding:
                            payloads[cid] = payload
                            del outstanding[cid]
                            self._inflight = len(outstanding)
                            key = assigned.pop(cid, None)
                            if key is not None:
                                load.get(key, set()).discard(cid)
                for ev in sup.pop_events():
                    # Requeue everything the dead incarnation held —
                    # the claimed chunk plus any stranded in its pipe —
                    # BEFORE the quarantine check, so a quarantine
                    # raise leaves ``assigned`` holding only chunks of
                    # still-live workers for the fence below to wait
                    # out.  Then drop the dead channel so its EOF pipe
                    # never re-enters the wait set.
                    for cid in sorted(load.pop((ev.slot, ev.incarnation),
                                               set())):
                        assigned.pop(cid, None)
                        if cid in outstanding:
                            self.chunk_retries += 1
                            pending.append(cid)
                    self._retire_channel(ev.slot, ev.incarnation)
                    if (ev.batch_id == batch["id"]
                            and ev.chunk_id is not None
                            and ev.chunk_id in outstanding):
                        cid = ev.chunk_id
                        deaths[cid] = deaths.get(cid, 0) + 1
                        if deaths[cid] >= self.max_chunk_retries:
                            self.chunks_quarantined += 1
                            raise ChunkQuarantined(
                                cid, outstanding[cid][1], deaths[cid],
                                ev.reason,
                            )
                if outstanding and not sup.healthy():
                    detail = ""
                    if self._last_boot_error:
                        detail = ("; last worker boot failure:\n"
                                  + self._last_boot_error)
                    raise PoolBroken(
                        f"all {self.num_workers} pool workers are gone and "
                        f"the respawn budget is exhausted{detail}"
                    )
        except Exception:
            # A failed dist batch abandons chunks that surviving
            # workers are still executing (in flight or prefetched in
            # their pipes) — and those scatter rows straight into the
            # shared output segment the NEXT batch will reuse.  Fence
            # them out before propagating so no stale writer can
            # corrupt a later call's results.
            if batch["mode"] == "dist":
                self._quiesce_stale_writers(batch, assigned, load, poll)
            raise
        finally:
            self._inflight = 0
        return [payloads[cid] for cid in sorted(payloads)]

    def _retire_channel(self, slot: int, incarnation: int) -> None:
        """Drop a dead incarnation's channel (close fds, free the slot).

        Serialised against the supervisor's spawn path: a death's
        respawn runs before its event becomes visible, but a later
        scan-pass retry of an empty slot could install a fresh channel
        concurrently, and an unsynchronised ``None`` store here would
        clobber it (leaving a live worker no one can reach).
        """
        sup = self._supervisor
        with sup.lock:
            ch = self._channels[slot]
            if ch is None or ch.incarnation != incarnation:
                return  # already replaced by a respawn
            self._channels[slot] = None
        ch.close()

    def _quiesce_stale_writers(self, batch: dict, assigned: dict,
                               load: dict, poll: float) -> None:
        """Wait out every handed-out chunk of a failed dist batch.

        A chunk is guaranteed write-free once its result message
        arrived (workers send after the scatter completes) or its
        holder died (a dead process cannot write), so this drains
        result pipes — discarding payloads — and consumes death
        events until ``assigned`` is empty.  With ``chunk_timeout``
        set, the supervisor bounds every straggler; without it, a
        writer that outlives the grace period forces the output
        segment to be retired instead, so stale scatters land in the
        orphaned mapping rather than the buffer the next
        :meth:`alloc_output` hands back.
        """
        from multiprocessing import connection as _mpconn

        sup = self._supervisor
        if self.chunk_timeout is not None:
            # A worker holds at most 1 + prefetch stale chunks, each
            # bounded by the deadline plus detection and kill slack.
            grace = (1 + self._prefetch) * (
                self.chunk_timeout + 10 * self.heartbeat_interval + 5.0
            )
        else:
            grace = 30.0
        deadline = time.monotonic() + grace
        while assigned and time.monotonic() < deadline:
            for ev in sup.pop_events():
                for cid in load.pop((ev.slot, ev.incarnation), set()):
                    assigned.pop(cid, None)
                self._retire_channel(ev.slot, ev.incarnation)
            conns = [
                ch.result for ch in self._channels
                if ch is not None and ch.alive()
            ]
            if not conns:
                time.sleep(poll)
                continue
            try:
                ready = _mpconn.wait(conns, timeout=poll)
            except OSError:
                ready = []
            for conn in ready:
                while True:
                    try:
                        if not conn.poll(0):
                            break
                        msg = conn.recv()
                    except (EOFError, OSError):
                        break  # death; its DeathEvent resolves the load
                    batch_id, cid, _slot, status, _payload = msg
                    if batch_id != batch["id"]:
                        continue
                    key = assigned.pop(cid, None)
                    if key is not None:
                        load.get(key, set()).discard(cid)
        if assigned and self._out_shm is not None:
            # Stale writers survived the grace period (wedged worker,
            # no chunk deadline configured): abandon the live output
            # segment so they can never touch a future batch's rows.
            self._retire(self._out_shm)
            self._out_shm = None
            self._out_rows = 0

    # -- health ------------------------------------------------------------

    def health(self) -> dict:
        """Liveness/fault counters for readiness probes and metrics."""
        base = {
            "serial": self._serial,
            "workers_configured": self.num_workers,
            "chunk_retries": self.chunk_retries,
            "chunks_quarantined": self.chunks_quarantined,
        }
        if self._serial:
            base.update(
                workers_alive=0 if self._closed else 1,
                deaths=0, restarts=0, wedged=0,
                respawn_budget=0, queue_depth=0,
            )
            return base
        stats = self._supervisor.stats()
        depth = self._inflight
        base.update(
            workers_alive=0 if self._closed else stats["alive"],
            deaths=stats["deaths"],
            restarts=stats["restarts"],
            wedged=stats["wedged"],
            respawn_budget=stats["respawn_budget"],
            queue_depth=depth,
        )
        return base

    def capacity_fraction(self) -> float:
        """Live workers / configured workers, in [0, 1] (serial: 1.0)."""
        if self._closed:
            return 0.0
        if self._serial:
            return 1.0
        return min(1.0, self._supervisor.alive_count() / max(1, self.num_workers))

    @property
    def supervisor(self) -> WorkerSupervisor | None:
        """The worker supervisor (``None`` on the serial path)."""
        return self._supervisor

class PhastPool(_BasePool):
    """Persistent worker pool computing shortest path trees in batches.

    Parameters
    ----------
    ch:
        The shared hierarchy.  Its sweep structure is built once in the
        parent and published to every worker.
    num_workers:
        Worker processes (default: CPU count capped by
        :func:`~repro.utils.workers.resolve_workers`).  ``1`` (or the
        single-CPU fallback) runs everything in-process with no shared
        memory at all — same results, no IPC.
    sources_per_sweep:
        The ``k`` of Section IV-B applied inside each worker.
    context:
        ``"fork"`` (default) or ``"spawn"``; shared-memory attach works
        under both, so spawn-only platforms are first-class.
    force_pool:
        Spin up worker processes even on a single-CPU host (the
        multiprocessing path stays testable everywhere).
    graphs:
        Named CSR graphs to publish for reducers (e.g. the original
        graph for arc flags / reach, the reverse graph for
        betweenness).  Zero-copy views inside workers.
    arrays:
        Named auxiliary NumPy arrays to publish (e.g. a partition's
        cell assignment).
    search_cache:
        Capacity of each engine's LRU cache of upward CH search
        spaces (0 disables, the default).  Worth enabling for serving
        workloads where sources repeat — the per-source scalar search
        is then paid once per distinct origin.
    chunk_size:
        Sources per work-queue chunk; default balances ~4 chunks per
        worker, rounded to a multiple of ``sources_per_sweep``.
    heartbeat_interval:
        Supervisor scan period in seconds.  Worker deaths are detected
        within roughly one interval; workers beat at twice this rate.
    chunk_timeout:
        Per-chunk wall-clock deadline in seconds (``None`` disables).
        A worker whose chunk exceeds it is considered wedged, killed,
        and replaced; the chunk is re-dispatched.  Size it well above
        the slowest legitimate chunk.
    max_chunk_retries:
        Worker deaths a single chunk may cause before it is
        quarantined with :class:`ChunkQuarantined` (default 2: a chunk
        that kills two workers is poison, not bad luck).
    max_respawns:
        Total replacement workers over the pool's lifetime (default
        ``3 * num_workers``).  When exhausted with no survivors,
        batches fail with :class:`PoolBroken`.
    fault_plan:
        Deterministic fault injection for chaos testing: a
        :class:`FaultPlan`, a spec string (``"crash:chunk=2"``), or
        ``None`` to read the ``REPRO_FAULT`` environment variable.
        Only worker processes fault; the serial path ignores plans.
    """

    def __init__(
        self,
        ch: ContractionHierarchy,
        *,
        num_workers: int | None = None,
        sources_per_sweep: int = 1,
        context: str = "fork",
        force_pool: bool = False,
        graphs: Mapping[str, StaticGraph] | None = None,
        arrays: Mapping[str, np.ndarray] | None = None,
        chunk_size: int | None = None,
        search_cache: int = 0,
        heartbeat_interval: float = 0.2,
        chunk_timeout: float | None = None,
        max_chunk_retries: int = 2,
        max_respawns: int | None = None,
        fault_plan: FaultPlan | str | None = None,
    ) -> None:
        if sources_per_sweep < 1:
            raise ValueError("sources_per_sweep must be >= 1")
        self.ch = ch
        self.n = ch.n
        self.search_cache = int(search_cache)
        self._graphs = dict(graphs or {})
        self._arrays = {
            name: np.ascontiguousarray(a) for name, a in (arrays or {}).items()
        }
        self._init_base(
            num_workers=num_workers,
            force_pool=force_pool,
            chunk_size=chunk_size,
            heartbeat_interval=heartbeat_interval,
            chunk_timeout=chunk_timeout,
            max_chunk_retries=max_chunk_retries,
            max_respawns=max_respawns,
            fault_plan=fault_plan,
            sources_per_sweep=sources_per_sweep,
        )

        # Parent-side engine: the serial path runs on it, and the
        # process path publishes its sweep arrays (built exactly once).
        self._engine = PhastEngine(ch, search_cache=self.search_cache)
        # The serial path's stand-in for a worker's TaskContext.
        self._serial_ctx = TaskContext({}, local_segments=self._local_segments)
        self._metric_generation = 0
        if not self._serial:
            self._start_workers(context)
        _LIVE_POOLS.add(self)

    # -- boot payload ------------------------------------------------------

    def _published_arrays(self) -> dict[str, np.ndarray]:
        published: dict[str, np.ndarray] = {}
        published.update(_sweep_keys(self._engine.sweep))
        published["up:first"] = self.ch.upward.first
        published["up:arc_head"] = self.ch.upward.arc_head
        published["up:arc_len"] = self.ch.upward.arc_len
        for name, g in self._graphs.items():
            published[f"g:{name}:first"] = g.first
            published[f"g:{name}:arc_head"] = g.arc_head
            published[f"g:{name}:arc_len"] = g.arc_len
        for name, a in self._arrays.items():
            published[f"a:{name}"] = a
        return published

    def _worker_meta(self) -> dict:
        return {
            "kind": "sweep",
            "n": self.n,
            "num_levels": self._engine.sweep.num_levels,
            "k": self.k,
            "search_cache": self.search_cache,
            "graphs": list(self._graphs),
            "arrays": list(self._arrays),
        }

    # -- metric hot swap ---------------------------------------------------

    @property
    def metric_generation(self) -> int:
        """Monotone counter bumped by every :meth:`swap_metric`."""
        return self._metric_generation

    def swap_metric(self, new_ch: ContractionHierarchy) -> int:
        """Re-point the pool at a structurally identical hierarchy.

        The new hierarchy must share the old one's *topology* — same
        vertex ranks and the exact same upward/downward arc sets — and
        differ only in weights (and vias), i.e. it came from
        ``customize()`` over the same :class:`~repro.ch.CHTopology`
        (or a re-contraction that reproduced the structure).  Only the
        metric-dependent arrays (``sw:arc_len``, ``sw:arc_via``,
        ``up:arc_len``) are published, as a generation-tagged segment
        ``repro-<pid>-m<gen>-<hex>``; workers re-point lazily on their
        next chunk, guided by the generation each batch carries, and
        the superseded segment is retired immediately (attached
        mappings survive the unlink).

        Must be called with no batch in flight — the caller provides
        the quiesce point (the server does it between micro-batches).
        Restricted-selection publications embed copied arc lengths, so
        callers holding :meth:`publish_arrays` selection handles must
        retire and republish them after a swap; the workers' cached
        restricted engines are dropped automatically.

        Returns the new metric generation.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._inflight:
            raise RuntimeError(
                "swap_metric requires a quiesced pool (a batch is in flight)"
            )
        old = self.ch
        if new_ch.n != old.n:
            raise ValueError(
                f"metric swap changed vertex count: {old.n} -> {new_ch.n}"
            )
        for field_name, a, b in (
            ("rank", old.rank, new_ch.rank),
            ("upward.first", old.upward.first, new_ch.upward.first),
            ("upward.arc_head", old.upward.arc_head, new_ch.upward.arc_head),
            ("downward_rev.first", old.downward_rev.first,
             new_ch.downward_rev.first),
            ("downward_rev.arc_head", old.downward_rev.arc_head,
             new_ch.downward_rev.arc_head),
        ):
            if not np.array_equal(a, b):
                raise ValueError(
                    f"metric swap changed hierarchy structure ({field_name} "
                    "differs); hot swap needs a customize() over the same "
                    "topology, not a fresh contraction"
                )
        engine = PhastEngine(new_ch, search_cache=self.search_cache)
        # The sweep permutation is a pure function of structure; with
        # the structure checks above this can only fire on a bug, but
        # a mixed layout would silently corrupt distances, so verify.
        old_sw, new_sw = self._engine.sweep, engine.sweep
        if not (
            np.array_equal(old_sw.pos_of, new_sw.pos_of)
            and np.array_equal(old_sw.arc_first, new_sw.arc_first)
            and np.array_equal(old_sw.arc_tail_pos, new_sw.arc_tail_pos)
        ):
            raise ValueError(
                "metric swap produced a different sweep layout; refusing"
            )
        gen = self._metric_generation + 1
        if not self._serial:
            name, specs = self.publish_arrays(
                {
                    "sw:arc_len": new_sw.arc_len,
                    "sw:arc_via": new_sw.arc_via,
                    "up:arc_len": new_ch.upward.arc_len,
                },
                tag=f"m{gen}",
            )
            old_name = (
                self._metric_handle[1] if self._metric_handle else None
            )
            self._metric_handle = (gen, name, specs)
            if old_name is not None:
                self.retire_publication(old_name)
        self.ch = new_ch
        self._engine = engine
        # Serial-path restricted engines were built over old weights.
        self._serial_ctx.state.pop("rphast:engines", None)
        self._metric_generation = gen
        return gen

    # -- output buffers ----------------------------------------------------

    def alloc_output(self, rows: int) -> np.ndarray:
        """A ``(rows, n)`` int64 matrix workers can write in place.

        The pool owns one reusable output segment; a second call (or a
        larger :meth:`trees` batch) may remap it, invalidating earlier
        views — treat the returned array as valid until the next batch.
        """
        if rows < 1:
            raise ValueError("rows must be >= 1")
        if self._serial:
            return np.empty((rows, self.n), dtype=np.int64)
        nbytes = rows * self.n * 8
        if self._out_shm is None or self._out_rows < rows:
            if self._out_shm is not None:
                self._retire(self._out_shm)
            self._out_shm = _create_segment(nbytes)
            self._out_rows = rows
        full = np.ndarray(
            (self._out_rows, self.n), dtype=np.int64, buffer=self._out_shm.buf
        )
        return full[:rows]

    def _own_output(self, out: np.ndarray, rows: int) -> bool:
        if self._serial:
            return True
        if self._out_shm is None:
            return False
        full = np.ndarray(
            (self._out_rows, self.n), dtype=np.int64, buffer=self._out_shm.buf
        )
        return bool(np.shares_memory(out, full))

    # -- execution ---------------------------------------------------------

    def trees(
        self, sources: Sequence[int], *, out: np.ndarray | None = None
    ) -> np.ndarray:
        """All distances for every source, written into shared rows.

        Returns a ``(len(sources), n)`` view (row ``i`` = distances
        from ``sources[i]``, indexed by original vertex ID).  ``out``
        may be a matrix from :meth:`alloc_output` to control the
        buffer's lifetime; by default the pool's internal buffer is
        (re)used, so copy rows you need to keep across batches.
        """
        sources = [int(s) for s in sources]
        if not sources:
            return np.empty((0, self.n), dtype=np.int64)
        rows = len(sources)
        if out is None:
            out = self.alloc_output(rows)
        else:
            if out.shape != (rows, self.n) or out.dtype != np.int64:
                raise ValueError(
                    f"out must be a ({rows}, {self.n}) int64 matrix"
                )
            if not self._own_output(out, rows):
                raise ValueError(
                    "out must come from this pool's alloc_output() so "
                    "workers can reach it"
                )
        self._execute({"mode": "dist"}, sources, out)
        return out

    def reduce(self, sources: Sequence[int], reducer: TreeReducer):
        """Fold every tree through ``reducer`` inside the workers."""
        sources = [int(s) for s in sources]
        if not sources:
            return reducer.merge([])
        states = self._execute({"mode": "reduce", "reducer": reducer}, sources)
        return reducer.merge(states)

    def map(self, sources: Sequence[int], fn: Callable[[int, np.ndarray], object]) -> list:
        """Apply ``fn(source, dist)`` per tree in the workers, in order.

        ``fn`` must be picklable (module-level) when worker processes
        are active; use :meth:`trees` + a parent-side loop otherwise.
        """
        sources = [int(s) for s in sources]
        if not sources:
            return []
        parts = self._execute({"mode": "map", "fn": fn}, sources)
        merged: dict[int, object] = {}
        for part in parts:
            merged.update(part)
        return [merged[i] for i in range(len(sources))]

    def matrix(
        self,
        sources: Sequence[int],
        *,
        selection: tuple,
        search_cache: int = 0,
    ) -> np.ndarray:
        """Distance matrix rows over a published restricted selection.

        ``selection`` is the ``(name, specs)`` handle returned by
        :meth:`publish_arrays` for an ``RPhastEngine``'s
        ``selection_arrays()``.  Sources are chunked over the workers,
        each sweeping ``sources_per_sweep`` lanes per restricted pass;
        the result is ``(len(sources), |targets|)`` with columns
        aligned to the engine's (deduplicated, sorted) target set.

        Rows travel back through the result pipes rather than the
        shared dist segment — they are |targets|-sized, so the pickle
        cost is negligible and a failed batch leaves no stale writers
        behind.  Restricted sweeps are deterministic, so the matrix is
        bit-identical for every worker count and across worker deaths.
        """
        sources = [int(s) for s in sources]
        if not sources:
            return np.empty((0, 0), dtype=np.int64)
        name, specs = selection
        batch = {
            "mode": "matrix",
            "sel_name": name,
            "sel_specs": specs,
            "search_cache": int(search_cache),
        }
        parts = self._execute(batch, sources)
        merged: dict[int, np.ndarray] = {}
        for part in parts:
            merged.update(part)
        return np.stack([merged[i] for i in range(len(sources))])

    def retire_publication(self, name: str) -> None:
        self._serial_ctx.state.get("rphast:engines", {}).pop(name, None)
        super().retire_publication(name)

    def _execute_serial(self, batch: dict, sources: list[int], out=None):
        # The workers' chunk function, run in process over one chunk.
        ctx = WorkerContext(self.n, {}, self._arrays, graphs=self._graphs)
        part = _run_chunk(self._engine, ctx, self.k, batch, 0, sources, out,
                          self._serial_ctx)
        return None if batch["mode"] == "dist" else [part]


class TaskPool(_BasePool):
    """Generic task-mode pool on the :class:`PhastPool` machinery.

    Where a :class:`PhastPool` worker holds a warm sweep engine, a
    ``TaskPool`` worker holds a :class:`TaskContext` — views of the
    boot-published arrays plus a scratch ``state`` dict that persists
    across chunks — and executes an arbitrary module-level handler
    ``fn(ctx, common, item)`` per submitted item.  Everything else is
    inherited: shared-memory publication, per-worker simplex pipes,
    the supervisor (heartbeats, chunk deadlines, respawn, quarantine)
    and deterministic re-dispatch of a dead worker's chunks.

    Handlers must be pure functions of (published segments, ``common``,
    item): a re-dispatched chunk re-executes the handler on a
    survivor, and only determinism makes that invisible to callers.
    State that evolves between submissions (e.g. the parallel
    preprocessing coordinator's per-epoch graph snapshots) goes
    through :meth:`publish_arrays` / :meth:`retire_publication`;
    handlers attach by name via :meth:`TaskContext.attach`.

    Items are dispatched one per chunk with no prefetch — task items
    are coarse (a shard of vertices, not a single tree), so spreading
    them over every live worker matters more than pipelining pipe
    latency.
    """

    def __init__(
        self,
        *,
        arrays: Mapping[str, np.ndarray] | None = None,
        num_workers: int | None = None,
        context: str = "fork",
        force_pool: bool = False,
        chunk_size: int | None = 1,
        heartbeat_interval: float = 0.2,
        chunk_timeout: float | None = None,
        max_chunk_retries: int = 2,
        max_respawns: int | None = None,
        fault_plan: FaultPlan | str | None = None,
    ) -> None:
        self._boot_arrays = {
            name: np.ascontiguousarray(a) for name, a in (arrays or {}).items()
        }
        self._init_base(
            num_workers=num_workers,
            force_pool=force_pool,
            chunk_size=chunk_size,
            heartbeat_interval=heartbeat_interval,
            chunk_timeout=chunk_timeout,
            max_chunk_retries=max_chunk_retries,
            max_respawns=max_respawns,
            fault_plan=fault_plan,
        )
        self._prefetch = 0
        self._serial_ctx: TaskContext | None = None
        if not self._serial:
            self._start_workers(context)
        _LIVE_POOLS.add(self)

    def _published_arrays(self) -> dict[str, np.ndarray]:
        return dict(self._boot_arrays)

    def _worker_meta(self) -> dict:
        return {"kind": "task", "k": 1, "n": 0}

    def submit(self, fn: Callable, items: Sequence, common=None) -> list:
        """Run ``fn(ctx, common, item)`` for every item; results in order.

        ``fn`` and the items must be picklable (module-level function,
        plain-data items); ``common`` is batch-constant data shipped
        once per chunk.
        """
        items = list(items)
        if not items:
            return []
        parts = self._execute(
            {"mode": "task", "fn": fn, "common": common}, items
        )
        merged: dict[int, object] = {}
        for part in parts:
            merged.update(part)
        return [merged[i] for i in range(len(items))]

    def _execute_serial(self, batch: dict, items: list, out=None):
        if self._serial_ctx is None:
            self._serial_ctx = TaskContext(
                dict(self._boot_arrays), local_segments=self._local_segments
            )
        fn, common = batch["fn"], batch["common"]
        return [
            {i: fn(self._serial_ctx, common, item)
             for i, item in enumerate(items)}
        ]


def picklable(obj) -> bool:
    """True when ``obj`` survives a pickle round trip (worker transport)."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
