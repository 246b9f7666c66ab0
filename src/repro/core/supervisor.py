"""Worker supervision for the batch pool (and chaos tooling around it).

PHAST sweeps are embarrassingly parallel *and* deterministic: any
chunk of sources produces bit-identical distance rows no matter which
worker computes it, or when.  That property makes worker-level fault
tolerance almost free — a crashed worker's in-flight chunk can simply
be handed to a survivor — yet the original :class:`PhastPool` turned
any worker death (OOM kill, segfault in a native library, stray
signal) into a stalled batch and a dead server.  This module supplies
the missing supervision pieces:

:class:`WorkerSupervisor`
    A monitor thread owned by the pool.  It watches each worker's
    ``Process.exitcode``, a shared heartbeat array (stale heartbeat =
    frozen process), and a per-chunk start stamp (stamp older than
    ``chunk_timeout`` = wedged worker).  Dead or wedged workers are
    killed and replaced by fresh processes that re-attach to the
    existing shared-memory segments; each death is published as a
    :class:`DeathEvent` so the pool can re-dispatch the victim's
    in-flight chunk to survivors.

:class:`FaultPlan` / ``REPRO_FAULT``
    A deterministic fault-injection hook compiled into the worker
    loop: crash (``SIGKILL`` to self, the OOM-killer stand-in), hang
    (block forever inside a chunk — only the chunk deadline can catch
    it), or slow (sleep before each matching chunk).  Faults can be
    scoped to a chunk id and/or worker slot and bounded by a shared
    trigger budget, so chaos tests are reproducible.

Structured failures
    :class:`ChunkQuarantined` (a chunk whose processing killed
    ``max_chunk_retries`` workers is failed instead of cascading
    through the whole pool) and :class:`PoolBroken` (no live workers
    and no respawn budget left).

Segment hygiene
    Pool segments are named ``repro-<pid>-<hex>`` so operators can
    attribute them; :func:`scan_segments` / :func:`unlink_orphans`
    implement the ``repro doctor`` subcommand that recovers a host
    whose ``/dev/shm`` fills up with segments leaked by killed runs.
"""

from __future__ import annotations

import os
import secrets
import signal
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "FaultPlan",
    "parse_fault_plan",
    "apply_fault",
    "ChunkQuarantined",
    "PoolBroken",
    "DeathEvent",
    "WorkerSupervisor",
    "SEGMENT_PREFIX",
    "SegmentInfo",
    "segment_name",
    "scan_segments",
    "unlink_orphans",
]


# ---------------------------------------------------------------------------
# Structured failures


class ChunkQuarantined(RuntimeError):
    """A chunk repeatedly killed its worker and was taken out of play.

    Raised by the pool instead of letting a poison chunk (one whose
    sweep reliably crashes the process that runs it) grind through the
    respawn budget.  Carries enough structure for a server to answer
    the affected requests with a real error instead of a stall.
    """

    def __init__(self, chunk_id: int, sources, deaths: int, reason: str) -> None:
        self.chunk_id = int(chunk_id)
        self.sources = [int(s) for s in sources]
        self.deaths = int(deaths)
        self.reason = reason
        head = ", ".join(str(s) for s in self.sources[:8])
        if len(self.sources) > 8:
            head += ", ..."
        super().__init__(
            f"chunk {self.chunk_id} (sources [{head}]) quarantined after "
            f"killing {self.deaths} worker(s); last death: {reason}"
        )


class PoolBroken(RuntimeError):
    """Every worker is gone and the respawn budget is exhausted."""


# ---------------------------------------------------------------------------
# Deterministic fault injection

_FAULT_KINDS = ("crash", "hang", "slow")


@dataclass(frozen=True)
class FaultPlan:
    """One injected fault, compiled into the worker chunk loop.

    Parameters
    ----------
    kind:
        ``"crash"`` (SIGKILL to self — indistinguishable from an OOM
        kill), ``"hang"`` (block inside the chunk forever; only a
        ``chunk_timeout`` can reclaim the worker), or ``"slow"``
        (sleep ``ms`` before the chunk — stretches batches so chaos
        tests can land a kill mid-flight).
    chunk:
        Trigger only on this chunk id within a batch (``None`` = any).
    worker:
        Trigger only in this worker slot (``None`` = any).
    times:
        Total trigger budget shared across all workers and respawns
        (``None`` = unlimited).  The default injects exactly once for
        crash/hang — the "one incident" chaos scenario — and
        unlimited for slow.
    ms:
        Sleep for ``kind="slow"``.
    """

    kind: str
    chunk: int | None = None
    worker: int | None = None
    times: int | None = field(default=None)
    ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {_FAULT_KINDS} (got {self.kind!r})"
            )
        if self.chunk is not None and self.chunk < 0:
            raise ValueError("fault chunk must be >= 0")
        if self.worker is not None and self.worker < 0:
            raise ValueError("fault worker must be >= 0")
        if self.times is not None and self.times < 1:
            raise ValueError("fault times must be >= 1 (or None for unlimited)")
        if self.ms < 0:
            raise ValueError("fault ms must be >= 0")
        if self.times is None and self.kind in ("crash", "hang"):
            # Default budget: one incident (a crash loop is the
            # poison-chunk scenario and must be asked for explicitly).
            object.__setattr__(self, "times", 1)


def parse_fault_plan(spec: str | None) -> FaultPlan | None:
    """Parse a ``REPRO_FAULT`` spec: ``kind[:key=value,...]``.

    Examples: ``crash``, ``crash:chunk=2``, ``crash:chunk=2,times=2``
    (the poison-chunk scenario), ``hang:chunk=1``, ``slow:ms=25``,
    ``slow:ms=25,worker=0``.  Empty/None specs return ``None``.
    """
    if spec is None or not spec.strip():
        return None
    head, _, rest = spec.strip().partition(":")
    kind = head.strip().lower()
    fields: dict = {}
    for part in (p for p in rest.split(",") if p.strip()):
        key, sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ValueError(f"fault field {part!r} is not key=value")
        try:
            if key == "chunk":
                fields["chunk"] = None if value in ("any", "*") else int(value)
            elif key == "worker":
                fields["worker"] = None if value in ("any", "*") else int(value)
            elif key == "times":
                fields["times"] = None if value in ("inf", "*") else int(value)
            elif key == "ms":
                fields["ms"] = float(value)
            else:
                raise ValueError(
                    f"unknown fault field {key!r} "
                    "(known: chunk, worker, times, ms)"
                )
        except ValueError as exc:
            if "fault field" in str(exc):
                raise
            raise ValueError(f"bad fault field {part!r}: {exc}") from None
    return FaultPlan(kind=kind, **fields)


def apply_fault(plan: FaultPlan | None, budget, slot: int, chunk_id: int) -> None:
    """Worker-side hook: fire ``plan`` if this (worker, chunk) matches.

    ``budget`` is a shared ``multiprocessing.Value`` trigger counter
    (``None`` = unlimited), decremented atomically so respawned
    workers and concurrent matches cannot over-fire.
    """
    if plan is None:
        return
    if plan.chunk is not None and plan.chunk != chunk_id:
        return
    if plan.worker is not None and plan.worker != slot:
        return
    if budget is not None:
        with budget.get_lock():
            if budget.value <= 0:
                return
            budget.value -= 1
    if plan.kind == "slow":
        time.sleep(plan.ms / 1e3)
        return
    if plan.kind == "hang":
        # The heartbeat thread keeps beating: only the supervisor's
        # per-chunk deadline can reclaim a hung worker, which is
        # exactly the path this fault exists to exercise.
        while True:
            time.sleep(3600)
    os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# The supervisor


@dataclass(frozen=True)
class DeathEvent:
    """One worker death, as observed by the monitor thread.

    ``batch_id``/``chunk_id`` identify the chunk the worker held when
    it died (``None`` when it died idle); the pool re-dispatches that
    chunk to survivors and counts deaths per chunk for quarantine.
    """

    slot: int
    incarnation: int
    reason: str
    exitcode: int | None
    batch_id: int | None
    chunk_id: int | None


class _WorkerHandle:
    __slots__ = ("process", "slot", "incarnation")

    def __init__(self, process, slot: int, incarnation: int) -> None:
        self.process = process
        self.slot = slot
        self.incarnation = incarnation


class WorkerSupervisor:
    """Monitor thread + shared health arrays for one pool's workers.

    The supervisor owns two small shared arrays the workers write into
    (lock-free: each slot is written by exactly one live process, and
    8-byte aligned stores are atomic on every platform we run on):

    * ``hb`` (float64, 2 per slot): ``hb[2s]`` last heartbeat stamp
      (written ~2x per ``heartbeat_interval`` by a worker-side beat
      thread, so it keeps beating even while a sweep runs), and
      ``hb[2s+1]`` the start stamp of the chunk in flight (0 = idle).
    * ``claims`` (int64, 2 per slot): ``(batch_id, chunk_id)`` of the
      chunk in flight — what the pool re-dispatches after a death.

    Detection policy, every ``heartbeat_interval``: a non-``None``
    ``exitcode`` is a death; a chunk stamp older than ``chunk_timeout``
    (when set) is a wedged worker (killed, then handled as a death);
    a heartbeat older than ``heartbeat_timeout`` is a frozen process
    (SIGSTOP, unkillable pageout) — same treatment.  Each death is
    recorded as a :class:`DeathEvent` and, while the respawn budget
    lasts, the slot is refilled with a fresh process that re-attaches
    to the existing shared-memory segments.
    """

    def __init__(
        self,
        ctx,
        num_slots: int,
        *,
        heartbeat_interval: float = 0.2,
        chunk_timeout: float | None = None,
        max_respawns: int | None = None,
    ) -> None:
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 (or None)")
        self.num_slots = num_slots
        self.heartbeat_interval = float(heartbeat_interval)
        self.chunk_timeout = chunk_timeout
        #: Freeze detection must tolerate scheduler starvation on
        #: oversubscribed hosts; the beat thread runs at interval/2.
        self.heartbeat_timeout = max(10.0 * self.heartbeat_interval, 5.0)
        self.hb = ctx.Array("d", 2 * num_slots, lock=False)
        self.claims = ctx.Array("q", 2 * num_slots, lock=False)
        self.respawn_budget = (
            3 * num_slots if max_respawns is None else int(max_respawns)
        )
        self.deaths = 0
        self.restarts = 0
        self.wedged = 0
        self._workers: list[_WorkerHandle | None] = [None] * num_slots
        self._spawn_fn = None
        self._incarnation = num_slots
        self._events: list[DeathEvent] = []
        self._spawn_failures: list[str] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._closing = False
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, spawn_fn) -> None:
        """Spawn every slot via ``spawn_fn(slot, incarnation)``; monitor."""
        self._spawn_fn = spawn_fn
        now = time.monotonic()
        with self._lock:
            for slot in range(self.num_slots):
                self.hb[2 * slot] = now
                self._workers[slot] = _WorkerHandle(spawn_fn(slot, slot), slot, slot)
        self._thread = threading.Thread(
            target=self._run, name="phast-pool-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop monitoring and respawning (workers are the pool's to join)."""
        with self._lock:
            self._closing = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def abort(self) -> None:
        """Signal-safe stop: flags only, no joins, no locks."""
        self._closing = True
        self._stop.set()

    # -- monitoring --------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self.scan()
            except Exception:
                pass  # the monitor must survive any transient

    def scan(self) -> None:
        """One detection pass (the monitor calls this periodically)."""
        with self._lock:
            self._scan_locked(time.monotonic())

    def _scan_locked(self, now: float) -> None:
        if self._closing:
            return
        for slot in range(self.num_slots):
            handle = self._workers[slot]
            if handle is None:
                # A previous respawn attempt failed at spawn time and
                # left the slot empty.  Retry every scan pass while the
                # budget lasts: a transient fork failure (EAGAIN under
                # memory pressure) heals, and a persistent one drains
                # the budget so ``healthy()`` goes false and the batch
                # loop raises PoolBroken instead of waiting forever on
                # a slot nothing will ever fill.
                self._respawn_locked(slot)
                continue
            process = handle.process
            code = process.exitcode
            if code is not None:
                self._death_locked(
                    slot, handle, f"worker exited with code {code}", code
                )
                continue
            if self.chunk_timeout is not None:
                started = self.hb[2 * slot + 1]
                if started > 0 and now - started > self.chunk_timeout:
                    self._kill_locked(
                        slot,
                        handle,
                        f"chunk deadline exceeded "
                        f"({now - started:.1f}s > {self.chunk_timeout:.1f}s)",
                    )
                    continue
            beat = self.hb[2 * slot]
            if beat > 0 and now - beat > self.heartbeat_timeout:
                self._kill_locked(
                    slot, handle, f"heartbeat stale for {now - beat:.1f}s"
                )

    def _kill_locked(self, slot: int, handle: _WorkerHandle, reason: str) -> None:
        self.wedged += 1
        try:
            handle.process.kill()
        except Exception:
            pass
        handle.process.join(timeout=5)
        self._death_locked(slot, handle, reason, handle.process.exitcode)

    def _death_locked(self, slot: int, handle: _WorkerHandle, reason: str,
                      exitcode) -> None:
        # The dead process cannot write anymore, so its claim arrays
        # are stable; a chunk stamp > 0 means it died holding a chunk.
        active = self.hb[2 * slot + 1] > 0
        self.deaths += 1
        self._events.append(DeathEvent(
            slot=slot,
            incarnation=handle.incarnation,
            reason=reason,
            exitcode=exitcode,
            batch_id=int(self.claims[2 * slot]) if active else None,
            chunk_id=int(self.claims[2 * slot + 1]) if active else None,
        ))
        del self._events[:-256]
        self._workers[slot] = None
        self._respawn_locked(slot)

    def _respawn_locked(self, slot: int) -> None:
        if self._closing or self._spawn_fn is None or self.respawn_budget <= 0:
            return
        self.respawn_budget -= 1
        incarnation = self._incarnation
        self._incarnation += 1
        self.hb[2 * slot] = time.monotonic()
        self.hb[2 * slot + 1] = 0.0
        self.claims[2 * slot] = 0
        self.claims[2 * slot + 1] = 0
        try:
            process = self._spawn_fn(slot, incarnation)
        except Exception as exc:  # fork failure: the slot stays empty
            self._spawn_failures.append(repr(exc))
            return
        self._workers[slot] = _WorkerHandle(process, slot, incarnation)
        self.restarts += 1

    # -- pool-facing queries -----------------------------------------------

    @property
    def lock(self) -> threading.Lock:
        """Serialises slot mutation (spawn/respawn run under it).

        The pool takes it when retiring a dead incarnation's channel
        so a concurrent scan-pass respawn can't have its freshly
        installed channel clobbered.
        """
        return self._lock

    def pop_events(self) -> list[DeathEvent]:
        """Drain the pending death events (consumed by the batch loop)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def alive_count(self) -> int:
        with self._lock:
            return sum(
                1 for h in self._workers
                if h is not None and h.process.exitcode is None
            )

    def can_respawn(self) -> bool:
        return not self._closing and self.respawn_budget > 0

    def healthy(self) -> bool:
        """False only when nothing is alive and nothing can come back."""
        return self.alive_count() > 0 or self.can_respawn()

    def processes(self) -> list:
        with self._lock:
            return [h.process for h in self._workers if h is not None]

    def stats(self) -> dict:
        """JSON-able counters for ``health``/``metrics`` endpoints."""
        return {
            "alive": self.alive_count(),
            "deaths": self.deaths,
            "restarts": self.restarts,
            "wedged": self.wedged,
            "respawn_budget": self.respawn_budget,
            "spawn_failures": len(self._spawn_failures),
        }


# ---------------------------------------------------------------------------
# Shared-memory segment hygiene (`repro doctor`)

#: Every pool segment is named ``repro-<creator pid>-<hex>`` so a
#: leaked segment can be attributed to a (possibly dead) process.
SEGMENT_PREFIX = "repro-"
SHM_DIR = "/dev/shm"


def segment_name(tag: str | None = None) -> str:
    """A fresh pool segment name carrying the creator's pid.

    ``tag`` inserts a classification token between the pid and the
    random suffix (``repro-<pid>-<tag>-<hex>``); hierarchy generations
    use ``m<generation>`` so ``repro doctor`` can attribute a
    generation segment stranded by a failed swap.  Tags must be alphanumeric —
    a dash would break the pid/tag/suffix split.
    """
    if tag is not None and (not tag or not tag.isalnum()):
        raise ValueError(f"segment tag must be alphanumeric, got {tag!r}")
    mid = f"{tag}-" if tag is not None else ""
    return f"{SEGMENT_PREFIX}{os.getpid()}-{mid}{secrets.token_hex(4)}"


@dataclass(frozen=True)
class SegmentInfo:
    """One shared-memory segment as seen by ``repro doctor``."""

    name: str
    path: str
    size_bytes: int
    pid: int | None
    owner_alive: bool
    #: ``"pool"`` (boot/output/selection), ``"metric"`` (a hierarchy
    #: generation segment), or ``"unknown"``.
    kind: str = "pool"
    #: Metric generation parsed from an ``m<gen>`` tag, else ``None``.
    generation: int | None = None
    #: Seconds since the segment file was last modified (None if the
    #: stat raced with an unlink).
    age_seconds: float | None = None

    @property
    def orphaned(self) -> bool:
        """Safe to unlink: the creating process is verifiably gone."""
        return self.pid is not None and not self.owner_alive


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


def scan_segments(prefix: str = SEGMENT_PREFIX,
                  shm_dir: str = SHM_DIR) -> list[SegmentInfo]:
    """List shared-memory segments matching the pool's naming prefix.

    A segment whose embedded creator pid no longer exists is flagged
    orphaned.  Segments whose name cannot be attributed to a pid are
    reported but never considered orphaned (we refuse to guess).
    """
    if not os.path.isdir(shm_dir):
        return []
    now = time.time()
    infos: list[SegmentInfo] = []
    for entry in sorted(os.listdir(shm_dir)):
        if not entry.startswith(prefix):
            continue
        path = os.path.join(shm_dir, entry)
        try:
            st = os.stat(path)
        except OSError:
            continue  # raced with an unlink
        pid: int | None = None
        kind = "unknown"
        generation: int | None = None
        rest = entry[len(prefix):]
        head, _, tail = rest.partition("-")
        if head.isdigit():
            pid = int(head)
            kind = "pool"
            tag = tail.split("-", 1)[0]
            if len(tag) > 1 and tag[0] == "m" and tag[1:].isdigit():
                kind = "metric"
                generation = int(tag[1:])
        infos.append(SegmentInfo(
            name=entry,
            path=path,
            size_bytes=st.st_size,
            pid=pid,
            owner_alive=_pid_alive(pid) if pid is not None else True,
            kind=kind,
            generation=generation,
            age_seconds=max(0.0, now - st.st_mtime),
        ))
    return infos


def unlink_orphans(infos: list[SegmentInfo] | None = None, *,
                   prefix: str = SEGMENT_PREFIX,
                   shm_dir: str = SHM_DIR) -> list[SegmentInfo]:
    """Unlink every orphaned segment; returns what was removed."""
    if infos is None:
        infos = scan_segments(prefix, shm_dir)
    removed: list[SegmentInfo] = []
    for info in infos:
        if not info.orphaned:
            continue
        try:
            os.unlink(info.path)
        except FileNotFoundError:
            continue
        except OSError:
            continue  # permissions: leave it for the operator
        removed.append(info)
    return removed
