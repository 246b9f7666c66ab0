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

    def __init__(self, max_pending: int) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = int(max_pending)
        self._lock = threading.Lock()
        self._pending = 0
        self._draining = False
        self.admitted_total = 0
        self.rejected = {self.OVERLOADED: 0, self.DRAINING: 0}

    @property
    def pending(self) -> int:
        """Requests admitted and not yet released."""
        return self._pending

    @property
    def draining(self) -> bool:
        return self._draining

    def start_draining(self) -> None:
        """Refuse all new work from now on (idempotent)."""
        self._draining = True

    def try_acquire(self) -> str | None:
        """Admit one request; returns ``None`` or the rejection reason."""
        with self._lock:
            if self._draining:
                self.rejected[self.DRAINING] += 1
                return self.DRAINING
            if self._pending >= self.max_pending:
                self.rejected[self.OVERLOADED] += 1
                return self.OVERLOADED
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
                "pending": self._pending,
                "draining": self._draining,
                "admitted_total": self.admitted_total,
                "rejected": dict(self.rejected),
            }
