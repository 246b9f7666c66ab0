"""Serving metrics: counters plus batch / wait / latency histograms.

Everything here is updated from two places — the event loop and the
executor threads that run matrix and swap work — so one lock guards
the lot (the histograms are plain Python and each update is a few list
operations; contention is negligible next to a sweep).

``snapshot()`` is the payload of the ``metrics`` request op, which
doubles as the server's health endpoint.
"""

from __future__ import annotations

import threading
import time

from ..utils.timing import LatencyHistogram

__all__ = ["ServerMetrics"]


class ServerMetrics:
    """Aggregated serving statistics for one :class:`PhastService`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self.requests: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        # Per-op wire-to-wire latency (request decoded -> response built).
        self.latency: dict[str, LatencyHistogram] = {}
        # Micro-batching telemetry.
        self.batch_sizes: dict[int, int] = {}
        self.batch_failures = 0
        self.lanes_total = 0
        self.batch_wait = LatencyHistogram()
        self.sweep_time = LatencyHistogram()
        # Matrix (many-to-many) telemetry.
        self.matrix_requests = 0
        self.matrix_cells = 0
        # Metric hot-swap telemetry.
        self.swaps_total = 0
        self.metric_generation = 0

    def uptime_seconds(self) -> float:
        """Monotonic seconds since this server instance constructed its
        metrics — the restart-detection signal of the ``health`` op (a
        router sees it move backwards exactly when the process is new)."""
        return round(time.monotonic() - self.started_at, 3)

    def record_request(self, op: str, count: int = 1) -> None:
        with self._lock:
            self.requests[op] = self.requests.get(op, 0) + count

    def record_error(self, code: int) -> None:
        with self._lock:
            key = str(code)
            self.errors[key] = self.errors.get(key, 0) + 1

    def record_latency(self, op: str, seconds: float) -> None:
        with self._lock:
            hist = self.latency.get(op)
            if hist is None:
                hist = self.latency[op] = LatencyHistogram()
            hist.observe(seconds)

    def record_batch(self, size: int, waits_s: list[float],
                     sweep_s: float, lanes: int | None = None) -> None:
        """One dispatched micro-batch: its size, per-request queueing
        delays, the sweep's execution time, and how many sweep lanes
        it needed (fewer than ``size`` when requests share sources)."""
        with self._lock:
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
            self.lanes_total += size if lanes is None else lanes
            for w in waits_s:
                self.batch_wait.observe(max(0.0, w))
            self.sweep_time.observe(sweep_s)

    def record_batch_failure(self) -> None:
        """One dispatched micro-batch whose sweep raised."""
        with self._lock:
            self.batch_failures += 1

    def record_matrix(self, cells: int) -> None:
        """One answered matrix request of ``cells`` = rows x cols."""
        with self._lock:
            self.matrix_requests += 1
            self.matrix_cells += int(cells)

    def record_swap(self, generation: int) -> None:
        """One completed metric hot swap; ``generation`` is the new one."""
        with self._lock:
            self.swaps_total += 1
            self.metric_generation = int(generation)

    def snapshot(self, admission: dict | None = None,
                 selection_cache: dict | None = None) -> dict:
        """JSON-able view of everything above."""
        with self._lock:
            batches = sum(self.batch_sizes.values())
            coalesced = sum(s * c for s, c in self.batch_sizes.items())
            snap = {
                "uptime_s": round(time.monotonic() - self.started_at, 3),
                "requests_total": dict(self.requests),
                "errors_total": dict(self.errors),
                "latency_ms": {
                    op: hist.summary() for op, hist in self.latency.items()
                },
                "batches": {
                    "count": batches,
                    "failures": self.batch_failures,
                    "size_histogram": {
                        str(s): c for s, c in sorted(self.batch_sizes.items())
                    },
                    "mean_size": round(coalesced / batches, 3) if batches else 0.0,
                    "mean_lanes": round(self.lanes_total / batches, 3) if batches else 0.0,
                    "wait_ms": self.batch_wait.summary(),
                    "sweep_ms": self.sweep_time.summary(),
                },
                "matrix": {
                    "requests": self.matrix_requests,
                    "cells_total": self.matrix_cells,
                },
                "swaps": {
                    "total": self.swaps_total,
                    "metric_generation": self.metric_generation,
                },
            }
        if admission is not None:
            snap["admission"] = admission
        if selection_cache is not None:
            snap["selection_cache"] = selection_cache
        return snap
