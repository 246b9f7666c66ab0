"""Small timing helpers used by the benchmark harness and the server."""

from __future__ import annotations

import math
import statistics
import time
from bisect import bisect_left
from typing import Callable

__all__ = ["Timer", "median_of_repeats", "LatencyHistogram"]


class Timer:
    """Context manager measuring wall-clock seconds.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.seconds >= 0
    True
    """

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._start

    @property
    def millis(self) -> float:
        """Elapsed milliseconds."""
        return self.seconds * 1e3


def median_of_repeats(fn: Callable[[], object], repeats: int = 3) -> float:
    """Median wall-clock seconds of ``repeats`` calls to ``fn``."""
    times = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class LatencyHistogram:
    """Fixed log-spaced bucket histogram for latency samples (seconds).

    Serving and benchmarking both need percentiles over many thousands
    of observations without keeping every sample: buckets whose bounds
    grow geometrically give a bounded relative error (one bucket width,
    ~21% at the default 12 buckets/decade) at O(1) memory and O(log B)
    per observation — the classic shape used by Prometheus/HdrHistogram
    style latency tracking.

    Observations outside ``[min_value, max_value]`` are clamped into the
    first/last bucket; exact ``min``/``max``/``sum`` are tracked on the
    side so ``summary()`` never hides outliers.

    Examples
    --------
    >>> h = LatencyHistogram()
    >>> for ms in (1, 2, 3, 4, 100):
    ...     h.observe(ms / 1e3)
    >>> h.count
    5
    >>> 0.002 <= h.percentile(50) <= 0.0035
    True
    """

    def __init__(
        self,
        *,
        min_value: float = 1e-6,
        max_value: float = 120.0,
        buckets_per_decade: int = 12,
    ) -> None:
        if not (0 < min_value < max_value):
            raise ValueError("need 0 < min_value < max_value")
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        decades = math.log10(max_value / min_value)
        num = max(1, math.ceil(decades * buckets_per_decade))
        ratio = (max_value / min_value) ** (1.0 / num)
        # bounds[i] is the *upper* edge of bucket i; one overflow bucket.
        self._bounds = [min_value * ratio ** (i + 1) for i in range(num)]
        self._bounds[-1] = max_value
        self._counts = [0] * (num + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float, count: int = 1) -> None:
        """Record ``count`` samples of the same value (non-negative
        seconds)."""
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError("latency samples must be non-negative")
        self._counts[bisect_left(self._bounds, seconds)] += count
        self.count += count
        self.total += seconds * count
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` (same bucket layout) into this histogram."""
        if other._bounds != self._bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other._counts):
            self._counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Mean of all samples in seconds (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile in seconds (0.0 when empty).

        Linear interpolation inside the owning bucket, clamped to the
        exact observed ``min``/``max``.
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self.count:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self._counts):
            if not c:
                continue
            if seen + c >= rank:
                lo = self._bounds[i - 1] if i > 0 else 0.0
                hi = self._bounds[i] if i < len(self._bounds) else self.max
                frac = (rank - seen) / c
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
            seen += c
        return self.max

    def summary(self) -> dict:
        """JSON-able summary in milliseconds (the serving unit)."""
        if not self.count:
            return {"count": 0}
        ms = 1e3
        return {
            "count": self.count,
            "mean_ms": round(self.mean * ms, 3),
            "p50_ms": round(self.percentile(50) * ms, 3),
            "p90_ms": round(self.percentile(90) * ms, 3),
            "p99_ms": round(self.percentile(99) * ms, 3),
            "min_ms": round(self.min * ms, 3),
            "max_ms": round(self.max * ms, 3),
        }
