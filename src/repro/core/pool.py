"""Persistent shared-memory batch execution (the PHAST batch layer).

Sections V and VII of the paper share one shape: millions of
independent shortest path trees over a single read-only hierarchy.
The original ``trees_per_core`` driver paid three avoidable costs on
every call: it forked a fresh process pool, rebuilt every worker's
:class:`~repro.core.phast.PhastEngine` (a full
:class:`~repro.core.sweep.SweepStructure` sort), and pickled an
n-length ``int64`` array per source back through a pipe.

:class:`PhastPool` keeps the whole apparatus resident instead:

* **Named publications** — every array a chunk reads or writes is a
  publication: one ``multiprocessing.shared_memory`` segment per
  hierarchy generation (the sweep structure plus the upward graph),
  per RPHAST selection, per output matrix and per caller
  :meth:`~_BasePool.publish_arrays`, plus the application graphs and
  arrays published at construction.  Workers attach by name and wrap
  zero-copy NumPy views, so the scheme works identically under
  ``fork`` and ``spawn``.  The serial path resolves the same names
  from in-process arrays.
* **One memo** — everything derived from publications (the warm
  engine of a generation, a restricted engine, a preprocessing
  replica) is built through :meth:`TaskContext.memo`, an LRU keyed by
  the publication names it was built from.  A retired or superseded
  name drops its entries and unmaps its segment at the next chunk.
* **Write in place** — full-distance batches land in a shared output
  matrix (one row per source) written directly by the workers; no
  per-source pickling.
* **Warm engines, balanced dispatch** — each worker keeps its engine
  across batches, sweeping ``k`` sources per pass (the Section IV-B
  lanes).  The parent hands chunks out over per-worker pipes with a
  small prefetch, topping workers up as results return — the load
  balance of a shared queue without shared locks a dying worker could
  wedge.
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
import itertools
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
from ..utils.workers import resolve_workers
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
# covers hard interrupts for long-lived processes that install it.

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
    runs in the parent over the per-worker results.  ``ctx`` is the
    worker's :class:`TaskContext`, giving access to ``n`` and to any
    CSR graphs and auxiliary arrays published at pool construction.
    """

    def make_state(self, ctx: "TaskContext"):
        """Fresh per-worker accumulator for one batch."""
        raise NotImplementedError

    def fold(self, ctx: "TaskContext", state, index: int, source: int,
             dist: np.ndarray):
        """Fold one tree (``dist`` indexed by original ID); return state."""
        raise NotImplementedError

    def finish(self, ctx: "TaskContext", state):
        """Last in-worker step; the return value is pickled to the parent."""
        return state

    def merge(self, states: list):
        """Combine the per-worker results (parent side)."""
        raise NotImplementedError


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
    arrays: Mapping[str, np.ndarray], tag: str | None = None
) -> tuple[shared_memory.SharedMemory, list[_ArraySpec]]:
    """Copy ``arrays`` into one fresh segment, then unmap it here.

    The creator keeps no mapping: readers attach by name, and a forked
    worker must not inherit a view that would pin the segment after
    it is retired.  ``unlink`` still works on the closed handle.
    """
    specs: list[_ArraySpec] = []
    offset = 0
    normalized = {k: np.ascontiguousarray(a) for k, a in arrays.items()}
    for key, a in normalized.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(_ArraySpec(key, a.dtype.str, a.shape, offset))
        offset += a.nbytes
    shm = _create_segment(offset, tag)
    for spec in specs:  # temporary views: none outlives the loop
        _views(shm, [spec])[spec.key][...] = normalized[spec.key]
    shm.close()
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


def _unmapped(shm: shared_memory.SharedMemory) -> bool:
    """Unmap ``shm``; False while a view still exports its buffer."""
    try:
        shm.close()
    except BufferError:
        return False
    return True


#: Entries a :class:`TaskContext` memo keeps: room for one generation's
#: engine, the output matrix and four restricted engines.
_MEMO_CAP = 6


class TaskContext:
    """What a pool worker holds between chunks.

    A publication is named by the ``(name, specs)`` handle that
    :meth:`~_BasePool.publish_arrays` returns.  Workers attach it by
    name; on the serial path (``specs is None``) the name resolves to
    the pool's in-process arrays.

    Attributes
    ----------
    n:
        Vertex count of the pool's hierarchy (0 for a :class:`TaskPool`).
    boot:
        Zero-copy views of the arrays published at pool construction.
    state:
        Scratch dict that persists for the worker process's lifetime.
        State derived from publications belongs in :meth:`memo`
        instead, which drops it when a publication is retired.
    """

    def __init__(self, n: int = 0, boot: tuple | None = None,
                 local: Mapping[str, dict] | None = None) -> None:
        self.n = n
        self.state: dict = {}
        self._local = local
        self._attached: dict[str, tuple] = {}
        self._lingering: list[shared_memory.SharedMemory] = []
        self._memo: OrderedDict = OrderedDict()
        self._boot = boot
        self.boot = self.attach(*boot) if boot else {}

    def attach(self, name: str, specs) -> Mapping[str, np.ndarray]:
        """Views of the publication ``name``.

        A worker maps the segment once and keeps it until a
        :meth:`sync` finds no memo entry built from it.
        """
        if self._local is not None:
            if name not in self._local:
                raise KeyError(f"publication {name!r} is retired or was "
                               "never published to this pool")
            return self._local[name]
        entry = self._attached.get(name)
        if entry is None:
            shm = _attach(name)
            entry = self._attached[name] = (shm, _views(shm, specs))
        return entry[1]

    def memo(self, kind: str, handles: Sequence[tuple], build: Callable):
        """``build(*views)`` over the publications ``handles``, memoized.

        Keyed by ``kind`` and the publication names: a republished
        array set has a fresh name, so it can never hit a stale entry.
        The least recently used entry beyond :data:`_MEMO_CAP` is
        evicted; its segments are unmapped at the next :meth:`sync`
        unless another entry uses them.
        """
        key = (kind, *[name for name, _ in handles])
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        value = memo[key] = build(*(self.attach(*h) for h in handles))
        if len(memo) > _MEMO_CAP:
            memo.popitem(last=False)
        return value

    def sync(self, live: frozenset) -> None:
        """Drop entries over publications not in ``live``; unmap the unused.

        Runs between chunks, so no view the running chunk holds is
        ever unmapped under it.  A segment stays mapped while any
        remaining memo entry was built from it.
        """
        for key in [k for k in self._memo if not live.issuperset(k[1:])]:
            del self._memo[key]
        if not (self._attached or self._lingering):
            return  # the serial path maps nothing
        used = {n for key in self._memo for n in key[1:]}
        if self._boot:
            used.add(self._boot[0])
        for name in [n for n in self._attached if n not in used]:
            self._lingering.append(self._attached.pop(name)[0])
        self._lingering = [s for s in self._lingering if not _unmapped(s)]

    def graph(self, name: str) -> StaticGraph:
        """A CSR graph published at pool construction (zero-copy view)."""
        if f"g:{name}:first" not in self.boot:
            raise KeyError(
                f"graph {name!r} was not published to this pool; pass it "
                "via PhastPool(..., graphs={...})"
            )
        return self.memo(f"graph:{name}", (self._boot,), lambda v: (
            StaticGraph.from_csr(v[f"g:{name}:first"], v[f"g:{name}:arc_head"],
                                 v[f"g:{name}:arc_len"])))

    def array(self, name: str) -> np.ndarray:
        """An auxiliary array published at pool construction."""
        if f"a:{name}" not in self.boot:
            raise KeyError(
                f"array {name!r} was not published to this pool; pass it "
                "via PhastPool(..., arrays={...})"
            )
        return self.boot[f"a:{name}"]

    def close(self) -> None:
        self.state.clear()
        self.boot = {}
        self._boot = None
        self.sync(frozenset())


# ---------------------------------------------------------------------------
# Hierarchy generations


def _hierarchy_arrays(ch: ContractionHierarchy) -> dict[str, np.ndarray]:
    """One hierarchy generation as a publication: sweep structure +
    ``G↑``, with its elimination tree as ``up:parent`` when it has one."""
    arrays = {
        **SweepStructure(ch).arrays(),
        "up:first": ch.upward.first,
        "up:arc_head": ch.upward.arc_head,
        "up:arc_len": ch.upward.arc_len,
    }
    if ch.elimination_parent is not None:
        arrays["up:parent"] = ch.elimination_parent
    return arrays


class _PublishedHierarchy:
    """The slice of a hierarchy a pooled engine needs (``n``, ``G↑``
    and its elimination tree, if any).

    The downward graph and preprocessing metadata are not part of a
    generation's publication; touching them raises instead of
    silently lying.
    """

    def __init__(self, views: Mapping[str, np.ndarray]) -> None:
        self.upward = StaticGraph.from_csr(
            views["up:first"], views["up:arc_head"], views["up:arc_len"]
        )
        self.n = self.upward.n
        self.elimination_parent = views.get("up:parent")

    def __getattr__(self, name: str):
        raise AttributeError(
            f"hierarchy field {name!r} is not published to pool workers "
            "(only n, the upward graph and its elimination tree are)"
        )


def _engine(ctx: TaskContext, hier: tuple,
            sel: tuple | None = None) -> PhastEngine | RPhastEngine:
    """The warm engine of the generation ``hier``, from ``ctx``'s memo:
    PHAST over its full sweep structure, or RPHAST over the published
    selection ``sel``.  Both re-wrap the published arrays through
    :meth:`SweepStructure.from_arrays`; nothing is re-sorted."""

    def phast(h):
        ch = _PublishedHierarchy(h)
        return PhastEngine(ch, sweep=SweepStructure.from_arrays(h, ch.n))

    def rphast(h, s):
        return RPhastEngine.from_arrays(_PublishedHierarchy(h), s)

    if sel is None:
        return ctx.memo("phast", (hier,), phast)
    return ctx.memo("rphast", (hier, sel), rphast)


def _output(ctx: TaskContext, out: tuple) -> np.ndarray:
    """The ``(rows, n)`` output matrix of the publication ``out``."""
    return ctx.memo("out", (out,), lambda v: v["out"])


# ---------------------------------------------------------------------------
# Chunk execution (worker processes and the serial path alike)


def _run_chunk(ctx: TaskContext, k: int, batch: dict, start: int,
               chunk: list):
    """Process one chunk; every chunk is self-contained and restartable.

    The batch names every publication it reads or writes: ``hier`` (the
    hierarchy generation snapshotted at submission, so a batch never
    mixes metrics), ``out`` and ``sel``; ``live`` lists the pool's
    publications, and everything derived from any other is dropped
    first.

    Reduce-mode chunks return a *per-chunk* finished state (the app
    reducers' ``merge`` is associative, and the parent merges chunk
    states in chunk order, so the result is deterministic no matter
    which worker ran which chunk or how often one was re-dispatched).
    """
    ctx.sync(batch["live"])
    mode = batch["mode"]
    if mode == "task":
        fn, common = batch["fn"], batch["common"]
        return {
            start + j: fn(ctx, common, item) for j, item in enumerate(chunk)
        }
    engine = _engine(ctx, batch["hier"], batch.get("sel"))
    out = _output(ctx, batch["out"]) if mode == "dist" else None
    reducer: TreeReducer | None = batch.get("reducer")
    fn: Callable | None = batch.get("fn")
    state = reducer.make_state(ctx) if mode == "reduce" else None
    results: dict[int, object] = {}
    for i in range(0, len(chunk), k):
        sub = chunk[i : i + k]
        base = start + i
        if mode == "dist":
            # Lanes scatter straight into the shared rows: no
            # intermediate per-source array at all.
            engine.trees(sub, out=out[base : base + len(sub)])
        elif mode == "matrix":
            # |T|-sized rows travel back through the result pipe (no
            # shared output segment), so a re-dispatched chunk is
            # trivially bit-identical and a failed matrix batch needs
            # no writer fencing.
            results.update(enumerate(engine.sweep_lanes(sub), base))
        else:
            for j, (s, row) in enumerate(zip(sub, engine.trees(sub)), base):
                if mode == "reduce":
                    state = reducer.fold(ctx, state, j, s, row)
                else:
                    results[j] = fn(s, row)
    if mode == "dist":
        return len(chunk)
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


def _pool_worker(slot, incarnation, meta, work_conn, result_conn, hb,
                 claims, fault, fault_budget):
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
    try:
        ctx = TaskContext(meta["n"], meta["boot"])
    except BaseException:
        try:
            result_conn.send((None, None, slot, "boot_error",
                              traceback.format_exc()))
        except (OSError, ValueError, BrokenPipeError):
            pass
        return
    k = meta["k"]
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
                payload = _run_chunk(ctx, k, batch, start, chunk)
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
        ctx.close()


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


#: Serial-path publication names, unique across the process so that a
#: handle from another pool never resolves here.
_LOCAL_IDS = itertools.count(1)


class _BasePool:
    """Worker-pool machinery shared by the pool flavours.

    Owns everything that is independent of *what* the workers compute:
    the pool's publications (named segments, retireable one by one),
    per-worker simplex pipe pairs, the
    :class:`~repro.core.supervisor.WorkerSupervisor` (heartbeats, chunk
    deadlines, respawn, quarantine), supervised dispatch with
    deterministic re-dispatch of a dead worker's chunks, the serial
    in-process path, and teardown that can never leak ``/dev/shm``
    segments.  Workers and the serial path run the same
    :func:`_run_chunk` over a :class:`TaskContext`; subclasses only
    build batches.
    """

    def _init_base(
        self,
        *,
        n: int,
        boot: Mapping[str, np.ndarray],
        num_workers: int | None,
        context: str,
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
        self.n = n
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

        #: Live publications by name: the segment to unlink, or on the
        #: serial path the in-process arrays the name resolves to.
        self._segments: dict[str, shared_memory.SharedMemory | dict] = {}
        #: Handle of the output matrix publication (see alloc_output).
        self._out: tuple | None = None
        self._boot = self._publish(boot, copy=False) if boot else None
        # The parent's own context: the serial path runs chunks in it;
        # the process path only maps its output matrix through it.
        if self._serial:
            self._ctx = TaskContext(n, self._boot, local=self._segments)
        else:
            self._ctx = TaskContext(n)
            self._start_workers(context)
        _LIVE_POOLS.add(self)

    # -- publications ------------------------------------------------------

    def _publish(self, arrays: Mapping[str, np.ndarray], *,
                 tag: str | None = None, copy: bool = True) -> tuple:
        """Make ``arrays`` a publication; returns its ``(name, specs)``.

        Worker processes read a shared-memory copy.  The serial path
        keeps the arrays in-process under a synthetic name: a copy
        (``copy=True``) when the caller may mutate them afterwards,
        otherwise the arrays themselves.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._serial:
            name = f"local-{next(_LOCAL_IDS)}"
            self._segments[name] = {
                k: np.array(a, order="C") if copy else a
                for k, a in arrays.items()
            }
            return name, None
        shm, specs = _publish(arrays, tag)
        self._segments[shm.name] = shm
        return shm.name, specs

    def publish_arrays(
        self, arrays: Mapping[str, np.ndarray], *, tag: str | None = None
    ) -> tuple[str, list[_ArraySpec] | None]:
        """Publish named arrays as a fresh, individually retireable segment.

        Returns a ``(name, specs)`` handle that travels to task
        handlers (inside ``common``/items) so they can attach by name
        via :meth:`TaskContext.attach` or build derived state through
        :meth:`TaskContext.memo`.  On the serial path the arrays are
        copied in-process under a synthetic name — same handle shape,
        no shared memory, ``specs`` is ``None``.  ``tag`` embeds a
        classification token in the segment name
        (``repro-<pid>-<tag>-<hex>``) so ``repro doctor`` can tell
        what a leaked segment was.
        """
        return self._publish(arrays, tag=tag)

    def retire_publication(self, name: str) -> None:
        """Unlink a publication; state derived from it is dropped.

        Views a caller already holds stay valid; workers unmap the
        segment before their next chunk.
        """
        seg = self._segments.pop(name, None)
        if isinstance(seg, shared_memory.SharedMemory):
            try:
                seg.unlink()
            except FileNotFoundError:
                pass
        self._ctx.sync(frozenset(self._segments))

    # -- lifecycle ---------------------------------------------------------

    def _start_workers(self, context: str) -> None:
        import multiprocessing as mp

        ctx = mp.get_context(context)
        self._channels = [None] * self.num_workers
        meta = {"n": self.n, "k": self.k, "boot": self._boot,
                "hb_interval": self.heartbeat_interval}
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
                    slot, incarnation, meta, work_r, result_w, sup.hb,
                    sup.claims, fault, fault_budget,
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
        for name in list(self._segments):
            self.retire_publication(name)
        self._out = None
        self._ctx.close()

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

    def _execute(self, batch: dict, items: list) -> list:
        """Run ``batch`` over ``items``; one payload per chunk, in order."""
        if self._closed:
            raise RuntimeError("pool is closed")
        self.batches_run += 1
        self.trees_computed += len(items)
        batch["live"] = frozenset(self._segments)
        if self._serial:
            return self._execute_serial(batch, items)
        self._batch_counter += 1
        batch["id"] = self._batch_counter
        return self._run_supervised(batch, self._chunks(items))

    def _execute_serial(self, batch: dict, items: list) -> list:
        """The workers' chunk function, run in process as one chunk."""
        return [_run_chunk(self._ctx, self.k, batch, 0, items)]

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
                for cid, status, payload in self._drain_results(
                        batch["id"], assigned, load, poll):
                    if status == "error":
                        raise RuntimeError("pool worker failed:\n" + payload)
                    if cid in outstanding:  # first result wins
                        payloads[cid] = payload
                        del outstanding[cid]
                        self._inflight = len(outstanding)
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

    def _drain_results(self, batch_id: int, assigned: dict, load: dict,
                       poll: float):
        """Yield ``(cid, status, payload)`` for this batch's arrived results.

        Waits at most ``poll`` on the live workers' result pipes, then
        reads every ready pipe dry.  Each yielded chunk is first dropped
        from ``assigned`` and its holder's ``load``: a worker sends
        only once the chunk is done, writes included.  Messages of
        superseded batches are skipped; boot failures are recorded.

        Only live workers' pipes are waited on: a dead incarnation's
        result conn sits at EOF — permanently "ready" — so including it
        would busy-spin the parent for as long as the slot stays dead.
        Dead workers hand their chunks back through DeathEvents instead.
        """
        from multiprocessing import connection as _mpconn

        conns = [
            ch.result for ch in self._channels
            if ch is not None and ch.alive()
        ]
        if not conns:
            time.sleep(poll)  # nothing alive yet: await respawn
            return
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
                    break  # dead worker; its DeathEvent follows
                msg_batch, cid, slot, status, payload = msg
                if status == "boot_error":
                    self._last_boot_error = payload
                    continue
                if msg_batch != batch_id:
                    continue  # stale: a superseded earlier batch
                key = assigned.get(cid)
                if key is not None and key[0] == slot:
                    del assigned[cid]
                    load.get(key, set()).discard(cid)
                yield cid, status, payload

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
            for _ in self._drain_results(batch["id"], assigned, load, poll):
                pass
        if assigned and self._out is not None:
            # Stale writers survived the grace period (wedged worker,
            # no chunk deadline configured): abandon the live output
            # segment so they can never touch a future batch's rows.
            self.retire_publication(self._out[0])
            self._out = None

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
        heartbeat_interval: float = 0.2,
        chunk_timeout: float | None = None,
        max_chunk_retries: int = 2,
        max_respawns: int | None = None,
        fault_plan: FaultPlan | str | None = None,
    ) -> None:
        if sources_per_sweep < 1:
            raise ValueError("sources_per_sweep must be >= 1")
        self.ch = ch
        boot: dict[str, np.ndarray] = {}
        for name, g in (graphs or {}).items():
            boot[f"g:{name}:first"] = g.first
            boot[f"g:{name}:arc_head"] = g.arc_head
            boot[f"g:{name}:arc_len"] = g.arc_len
        for name, a in (arrays or {}).items():
            boot[f"a:{name}"] = np.ascontiguousarray(a)
        hierarchy = _hierarchy_arrays(ch)
        self._init_base(
            n=ch.n,
            boot=boot,
            num_workers=num_workers,
            context=context,
            force_pool=force_pool,
            chunk_size=chunk_size,
            heartbeat_interval=heartbeat_interval,
            chunk_timeout=chunk_timeout,
            max_chunk_retries=max_chunk_retries,
            max_respawns=max_respawns,
            fault_plan=fault_plan,
            sources_per_sweep=sources_per_sweep,
        )
        self._metric_generation = 0
        self._hier: tuple | None = None
        self._publish_generation(hierarchy)

    # -- metric hot swap ---------------------------------------------------

    def _publish_generation(self, hierarchy: dict[str, np.ndarray]) -> None:
        """Make ``hierarchy`` the generation every later batch names.

        Pool-owned, so the serial path references the arrays.  The
        superseded generation is retired.  The serial path builds the
        new engine here rather than on the next request; workers build
        theirs on their next chunk.
        """
        old = self._hier
        self._hier = self._publish(
            hierarchy, tag=f"m{self._metric_generation}", copy=False
        )
        if old is not None:
            self.retire_publication(old[0])
        if self._serial:
            _engine(self._ctx, self._hier)

    @property
    def metric_generation(self) -> int:
        """Monotone counter bumped by every :meth:`swap_metric`."""
        return self._metric_generation

    def swap_metric(self, new_ch: ContractionHierarchy) -> int:
        """Re-point the pool at another metric of the same contraction.

        The new hierarchy must share the old one's vertex count and
        contraction order (``rank``); its arc sets, weights, vias and
        levels may all differ, as they do between two ``customize()``
        runs over one :class:`~repro.ch.CHTopology` (each keeps only
        the arcs its metric needs).  It is published the way pool
        construction published generation 0: one full publication of
        the sweep structure plus the upward graph, tagged
        ``repro-<pid>-m<gen>-<hex>``, so nothing of the old generation's
        layout is reused.  Every later batch names it, so workers
        re-point on their next chunk and a batch never mixes metrics;
        the superseded generation is retired immediately, and
        everything derived from it (engines, restricted engines) is
        dropped.

        Must be called with no batch in flight — the caller provides
        the quiesce point (between its batches).
        Restricted-selection publications embed copied arc lengths, so
        callers holding :meth:`publish_arrays` selection handles must
        retire and republish them after a swap.

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
        if not np.array_equal(old.rank, new_ch.rank):
            raise ValueError(
                "metric swap changed hierarchy structure (rank differs); "
                "hot swap needs a customize() over the same topology, not "
                "a fresh contraction"
            )
        self._metric_generation += 1
        self._publish_generation(_hierarchy_arrays(new_ch))
        self.ch = new_ch
        return self._metric_generation

    # -- output buffers ----------------------------------------------------

    def alloc_output(self, rows: int) -> np.ndarray:
        """A ``(rows, n)`` int64 matrix workers can write in place.

        The pool owns one reusable output publication; a second call
        (or a larger :meth:`trees` batch) may replace it, invalidating
        earlier views — treat the returned array as valid until the
        next batch.
        """
        if rows < 1:
            raise ValueError("rows must be >= 1")
        full = None if self._out is None else _output(self._ctx, self._out)
        if full is None or full.shape[0] < rows:
            if self._out is not None:
                self.retire_publication(self._out[0])
            self._out = self._publish(
                {"out": np.zeros((rows, self.n), dtype=np.int64)},
                tag="out", copy=False,
            )
            full = _output(self._ctx, self._out)
        return full[:rows]

    def _own_output(self, out: np.ndarray) -> bool:
        return self._out is not None and bool(
            np.shares_memory(out, _output(self._ctx, self._out))
        )

    # -- execution ---------------------------------------------------------

    def _batch(self, mode: str, **fields) -> dict:
        """A batch over the current generation, snapshotted by name."""
        return {"mode": mode, "hier": self._hier, **fields}

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
            if not self._own_output(out):
                raise ValueError(
                    "out must come from this pool's alloc_output() so "
                    "workers can reach it"
                )
        self._execute(self._batch("dist", out=self._out), sources)
        return out

    def reduce(self, sources: Sequence[int], reducer: TreeReducer):
        """Fold every tree through ``reducer`` inside the workers."""
        sources = [int(s) for s in sources]
        if not sources:
            return reducer.merge([])
        states = self._execute(self._batch("reduce", reducer=reducer), sources)
        return reducer.merge(states)

    def map(self, sources: Sequence[int], fn: Callable[[int, np.ndarray], object]) -> list:
        """Apply ``fn(source, dist)`` per tree in the workers, in order.

        ``fn`` must be picklable (module-level) when worker processes
        are active; use :meth:`trees` + a parent-side loop otherwise.
        """
        sources = [int(s) for s in sources]
        if not sources:
            return []
        parts = self._execute(self._batch("map", fn=fn), sources)
        return _in_order(parts, len(sources))

    def matrix(
        self,
        sources: Sequence[int],
        *,
        selection: tuple,
    ) -> np.ndarray:
        """Distance matrix rows over a published restricted selection.

        ``selection`` is the ``(name, specs)`` handle returned by
        :meth:`publish_arrays` for an ``RPhastEngine``'s
        ``selection_arrays()``; a handle this pool never published or
        already retired raises ``ValueError``.  Sources are chunked
        over the workers, each sweeping ``sources_per_sweep`` lanes
        per restricted pass; the result is ``(len(sources),
        |targets|)`` with columns aligned to the engine's
        (deduplicated, sorted) target set.

        Rows travel back through the result pipes rather than the
        shared dist segment — they are |targets|-sized, so the pickle
        cost is negligible and a failed batch leaves no stale writers
        behind.  Restricted sweeps are deterministic, so the matrix is
        bit-identical for every worker count and across worker deaths.
        """
        if selection[0] not in self._segments:
            raise ValueError(
                f"selection {selection[0]!r} is not a live publication of "
                "this pool (retired, or never published here)"
            )
        sources = [int(s) for s in sources]
        if not sources:
            return np.empty((0, 0), dtype=np.int64)
        batch = self._batch("matrix", sel=selection)
        return np.stack(_in_order(self._execute(batch, sources), len(sources)))


def _in_order(parts: list[dict], count: int) -> list:
    """Merge per-chunk ``{index: value}`` payloads into one ordered list."""
    merged: dict[int, object] = {}
    for part in parts:
        merged.update(part)
    return [merged[i] for i in range(count)]


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
    handlers build what they derive from a publication through
    :meth:`TaskContext.memo`, which drops it once the name is retired.

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
        self._init_base(
            n=0,
            boot={name: np.ascontiguousarray(a)
                  for name, a in (arrays or {}).items()},
            num_workers=num_workers,
            context=context,
            force_pool=force_pool,
            chunk_size=chunk_size,
            heartbeat_interval=heartbeat_interval,
            chunk_timeout=chunk_timeout,
            max_chunk_retries=max_chunk_retries,
            max_respawns=max_respawns,
            fault_plan=fault_plan,
        )
        self._prefetch = 0

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
        return _in_order(parts, len(items))


def picklable(obj) -> bool:
    """True when ``obj`` survives a pickle round trip (worker transport)."""
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False
