"""Front-door routing: one public port over N ``repro serve`` replicas.

The single-node stack (:mod:`repro.server`) keeps a PHAST sweep's data
hot in one process's caches; this package adds the *horizontal* step —
a single asyncio router process owns the public TCP port and fans
requests out to replicas, each running its own warm
:class:`~repro.core.phast.PhastEngine` over the same read-only graph/CH
artifacts.  The router speaks the existing length-prefixed JSON
protocol on both sides, so every existing client (``ServerClient``,
``repro client``, the benchmarks) works unmodified against it.

Why affinity routing: a replica's throughput depends on state that
*accretes per process* — the matrix op's
:class:`~repro.core.rphast.SelectionCache` (with its per-selection
upward search LRU).  Spraying requests uniformly would cold-miss it
on every replica.  The router therefore routes by consistent hashing on the
query *source* (so a depot's repeat traffic lands on one replica) and
on the *target-set hash* for ``matrix`` (so one replica keeps each
selection warm), spilling to the next replica on the ring only when
the home replica is out of rotation.

Modules
-------
:mod:`~repro.router.ring`
    Consistent-hash ring with virtual nodes: stable key → replica
    assignment that moves only ~1/N of keys when the set changes.
:mod:`~repro.router.replica`
    Per-replica state machine (active / warming / suspect / down /
    draining), the multiplexed asyncio connection to one replica, and
    :class:`ReplicaManager` — spawn or adopt ``repro serve``
    processes and drive rolling drain/restart.
:mod:`~repro.router.metrics`
    Router-level accounting: per-replica rps, spill rate, affinity
    hit rate, health-state transitions.
:mod:`~repro.router.service`
    :class:`PhastRouter`, the asyncio front door, plus
    :func:`route_in_thread` for tests and benchmarks.
"""

from .metrics import RouterMetrics
from .replica import Replica, ReplicaLink, ReplicaManager
from .ring import HashRing
from .service import PhastRouter, RouterConfig, RouterHandle, route_in_thread

__all__ = [
    "HashRing",
    "PhastRouter",
    "Replica",
    "ReplicaLink",
    "ReplicaManager",
    "RouterConfig",
    "RouterHandle",
    "RouterMetrics",
    "route_in_thread",
]
