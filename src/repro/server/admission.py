"""Admission control: a bounded house, shed load at the door.

A saturated PHAST server must reject early rather than queue without
bound: every admitted tree request pins a reply, a queue slot, and
eventually a sweep lane, so an unbounded backlog turns overload into
memory growth plus deadline misses for *everyone* (the classic
goodput collapse).  The controller keeps one number — requests
admitted but not yet finished — under ``max_pending`` and refuses the
rest with a 429-style error the client can back off on.

Draining is the second gate: once the server begins shutting down,
new work is refused with 503 while admitted work runs to completion.

Degraded mode is the third: when pool workers die, serving capacity
drops before the replacements finish booting.  The service feeds the
pool's live-worker fraction into :meth:`set_capacity`, which shrinks
the effective admission bound proportionally — the instance sheds the
load it can no longer carry with fast 429s instead of queueing
requests it would only time out, and recovers automatically as
respawned workers rejoin.
"""

from __future__ import annotations

import threading

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded in-flight-request gate with rejection accounting.

    Thread-safe, though the service admits and releases on its event
    loop.
    """

    #: Rejection reasons (keys of :attr:`rejected`).
    OVERLOADED = "overloaded"
    DRAINING = "draining"
    DEGRADED = "degraded"

    def __init__(self, max_pending: int) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._pending = 0
        self._draining = False
        self._capacity = 1.0
        self.admitted_total = 0
        self.rejected = {self.OVERLOADED: 0, self.DRAINING: 0,
                         self.DEGRADED: 0}

    @property
    def pending(self) -> int:
        """Requests admitted and not yet released."""
        return self._pending

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def capacity(self) -> float:
        """Fraction of nominal serving capacity currently available."""
        return self._capacity

    def start_draining(self) -> None:
        """Refuse all new work from now on (idempotent)."""
        self._draining = True

    def set_capacity(self, fraction: float) -> None:
        """Scale admission to the live fraction of serving capacity.

        Called periodically by the service with the pool's live-worker
        fraction; admission never drops below one in-flight request,
        so a pool that is merely *rebuilding* (workers respawning)
        keeps trickling work instead of blackholing.
        """
        with self._lock:
            self._capacity = min(1.0, max(0.0, float(fraction)))

    def _effective_locked(self) -> int:
        return max(1, int(round(self.max_pending * self._capacity)))

    def try_acquire(self) -> str | None:
        """Admit one request; returns ``None`` or the rejection reason."""
        with self._lock:
            if self._draining:
                self.rejected[self.DRAINING] += 1
                return self.DRAINING
            limit = self._effective_locked()
            if self._pending >= limit:
                # DEGRADED is reserved for rejections that exist only
                # because the bound was scaled down; an instance whose
                # backlog fills the full nominal bound is OVERLOADED
                # no matter how much capacity it has lost, so the two
                # counters operators alert on stay distinguishable.
                reason = (self.OVERLOADED if self._pending >= self.max_pending
                          else self.DEGRADED)
                self.rejected[reason] += 1
                return reason
            self._pending += 1
            self.admitted_total += 1
            return None

    def release(self) -> None:
        """One admitted request finished (however it ended)."""
        with self._lock:
            if self._pending <= 0:
                raise RuntimeError("release() without matching try_acquire()")
            self._pending -= 1

    def snapshot(self) -> dict:
        """JSON-able accounting for the metrics endpoint."""
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "effective_max_pending": self._effective_locked(),
                "capacity": self._capacity,
                "pending": self._pending,
                "draining": self._draining,
                "admitted_total": self.admitted_total,
                "rejected": dict(self.rejected),
            }
