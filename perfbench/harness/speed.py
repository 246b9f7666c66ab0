"""Host speed: a fixed CPU kernel, timed in the benchmark process.

On a shared host the same code runs in slow and fast states that
steal does not show.  A vCPU here flips between them within a second
(on an otherwise idle host the kernel below takes ~0.6 or ~1.0 ms,
nothing in between; ~1.1-1.6 ms on average through a run), and the
share of slow time drifts over minutes: CPU time per served request
moved 20-35% between sets of runs minutes apart, on every metric at
once.  Over 10-20 s the two vCPUs' mean kernel times agree (correlation
0.87-0.94), so sampling the kernel through a run on the generator's
vCPU gives the slowdown the program saw on the other one.

The program is less sensitive than the kernel.  Over 40 runs (20 each
of serve-sweep and metric-swap, the kernel's mean time ranging 1.7x),
log-log fits of the program's figures on the kernel's slowdown gave
elasticities of 0.3-0.5 (p50), 0.5-0.6 (capacity) and 0.6-0.7 (CPU
per request), with correlations of 0.6-0.9; set-up time gave 0.3-0.7.
:data:`ELASTICITY` is one
round value for all of them; it cut the spread across seeds of every
one of those figures on serve-sweep, and of p50 and CPU per request
on metric-swap.

The kernel does the kinds of work the program does per request (NumPy
gathers and a segmented minimum over arrays of the network's size, a
JSON encode and decode of a distance row) but calls none of the
program's code, so a change to the program leaves its time alone.
"""

from __future__ import annotations

import json
import time

import numpy as np

__all__ = ["ELASTICITY", "REFERENCE_MS", "probe_ms", "sample", "slowdown"]

#: Typical mean time of one kernel iteration sampled during a run on
#: the host the bounds were set on (2 vCPUs of an Intel Xeon, NumPy
#: 2.4, CPython 3.11); it is ~0.6 ms there on an idle host in its fast
#: state.  Metrics are scaled to it.
REFERENCE_MS = 1.30
#: How much of the kernel's slowdown the program's figures follow.
ELASTICITY = 0.5

_N, _M, _ROUNDS = 1600, 12000, 8
_inputs: tuple | None = None


def _make_inputs() -> tuple:
    rng = np.random.default_rng(12345)
    head = np.sort(rng.integers(0, _N, _M))
    return (head, rng.integers(1, 1000, _M),
            np.minimum(np.searchsorted(head, np.arange(_N)), _M - 1),
            rng.integers(0, 1 << 20, _N))


def probe_ms() -> float:
    """CPU milliseconds of one kernel iteration (thread CPU time, so
    time stolen from the thread does not count)."""
    global _inputs
    if _inputs is None:
        _inputs = _make_inputs()
    head, w, starts, d0 = _inputs
    c0 = time.thread_time()
    d = d0.copy()
    for _ in range(_ROUNDS):
        d = np.minimum(d, np.minimum.reduceat(d[head] + w, starts))
    json.loads(json.dumps({"ok": True, "dist": d.tolist()}))
    return (time.thread_time() - c0) * 1e3


def sample(count: int) -> list[float]:
    return [probe_ms() for _ in range(count)]


def slowdown(samples) -> float:
    """The factor by which the program ran slow while ``samples`` were
    taken: the kernel's mean time over :data:`REFERENCE_MS`, to the
    power :data:`ELASTICITY`.  The mean, not the median: a run spends
    a share of its time in each state, and its CPU time is the
    share-weighted mean of the two speeds."""
    return (float(np.mean(samples)) / REFERENCE_MS) ** ELASTICITY
