"""Order statistics that state how many samples they rest on."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

__all__ = ["MIN_BEYOND", "TooFewSamples", "Percentile", "percentile",
           "median"]

#: A percentile is only reported when at least this many samples lie
#: beyond it; fewer would make a tail figure one or two stalls wide.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


@dataclass(frozen=True)
class Percentile:
    p: float
    value: float
    count: int
    beyond: int


def percentile(samples, p: float) -> Percentile:
    """The ``p``-th percentile of ``samples`` with its sample count.

    ``beyond`` is the number of samples above the percentile's rank,
    ``floor(count * (1 - p / 100))``; the call refuses with
    :class:`TooFewSamples` when it is below :data:`MIN_BEYOND`.
    """
    if not 0 < p < 100:
        raise ValueError("percentile must be in (0, 100)")
    arr = np.asarray(samples, dtype=np.float64)
    count = int(arr.size)
    beyond = math.floor(count * (1.0 - p / 100.0) + 1e-9)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {beyond}"
        )
    return Percentile(p, float(np.percentile(arr, p)), count, beyond)


def median(samples) -> float:
    if len(samples) == 0:
        raise TooFewSamples("median of an empty sample")
    return float(statistics.median(samples))
