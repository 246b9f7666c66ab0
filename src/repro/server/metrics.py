"""Serving metrics: counters plus batch / wait / latency histograms.

Every update happens on the service's event-loop thread — requests,
errors and latencies as each answer is written, batches as the batcher
dispatches them, a matrix's cells when its outcome is delivered — so
nothing here takes a lock.

``snapshot()`` is the payload of the ``metrics`` request op, which
doubles as the server's health endpoint.
"""

from __future__ import annotations

import time

from ..utils.timing import LatencyHistogram

__all__ = ["ServerMetrics"]


class ServerMetrics:
    """Aggregated serving statistics for one :class:`PhastService`."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.requests: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        # Per-op wire-to-wire latency (request decoded -> response built).
        self.latency: dict[str, LatencyHistogram] = {}
        # Micro-batching telemetry.
        self.batch_sizes: dict[int, int] = {}
        self.batch_failures = 0
        self.batch_wait = LatencyHistogram()
        self.sweep_time = LatencyHistogram()
        # Matrix (many-to-many) telemetry.
        self.matrix_requests = 0
        self.matrix_cells = 0

    def uptime_seconds(self) -> float:
        """Monotonic seconds since this server instance constructed its
        metrics — the restart-detection signal of the ``health`` op (a
        router sees it move backwards exactly when the process is new)."""
        return round(time.monotonic() - self.started_at, 3)

    def record_request(self, op: str, count: int = 1) -> None:
        self.requests[op] = self.requests.get(op, 0) + count

    def record_error(self, code: int) -> None:
        key = str(code)
        self.errors[key] = self.errors.get(key, 0) + 1

    def record_latency(self, op: str, seconds: float,
                       count: int = 1) -> None:
        """``count`` answers of ``op`` that took ``seconds`` each."""
        hist = self.latency.get(op)
        if hist is None:
            hist = self.latency[op] = LatencyHistogram()
        hist.observe(seconds, count)

    def record_batch(self, size: int, waits_s: list[tuple[float, int]],
                     sweep_s: float) -> None:
        """One dispatched micro-batch: its size, its requests' queueing
        delays as ``(seconds, count)`` pairs (requests that arrived
        together waited alike) and the sweep's execution time."""
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        for wait, count in waits_s:
            self.batch_wait.observe(max(0.0, wait), count)
        self.sweep_time.observe(sweep_s)

    def record_batch_failure(self) -> None:
        """One dispatched micro-batch whose sweep raised."""
        self.batch_failures += 1

    def record_matrix(self, cells: int) -> None:
        """One answered matrix request of ``cells`` = rows x cols."""
        self.matrix_requests += 1
        self.matrix_cells += int(cells)

    def snapshot(self, admission: dict, selection_cache: dict,
                 metric_generation: int) -> dict:
        """JSON-able view of everything above, with the service's
        admission ledger, selection cache and metric generation (every
        swap bumps it, so it is also the swap count)."""
        batches = sum(self.batch_sizes.values())
        coalesced = sum(s * c for s, c in self.batch_sizes.items())
        mean_size = round(coalesced / batches, 3) if batches else 0.0
        return {
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
                "mean_size": mean_size,
                # One sweep lane per request.
                "mean_lanes": mean_size,
                "wait_ms": self.batch_wait.summary(),
                "sweep_ms": self.sweep_time.summary(),
            },
            "matrix": {
                "requests": self.matrix_requests,
                "cells_total": self.matrix_cells,
            },
            "swaps": {
                "total": metric_generation,
                "metric_generation": metric_generation,
            },
            "admission": admission,
            "selection_cache": selection_cache,
        }
