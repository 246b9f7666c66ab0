"""End-to-end metrics of a run, corrected for host CPU steal.

On a shared 2-vCPU host the hypervisor steals 0-30% of CPU time in
bursts, and wall-clock figures follow it almost linearly.  Each phase
is therefore cut into :data:`~harness.workloads.WINDOW_S` windows, and
the inverse median latency and the completion rate of each window
are fitted against the window's host steal share by weighted least
squares.  The fit at zero steal is what the machine gives with
nothing stolen.  Set-up time has its stolen ticks subtracted.

The host also runs in slow and fast states that steal does not show
(``speed.py``).  Every time and rate is then scaled by the host
slowdown sampled over the same phase or set-up, which gives the gated
metric: the figure at the host's fast-state speed.  The figures
before either correction, the slowdowns, p99 and the steal seen are
all reported in the run's record.
"""

from __future__ import annotations

import numpy as np

from .procstat import CLK_TCK, MIN_TICKS
from .stats import TooFewSamples, median, percentile

__all__ = ["UNITS", "steal_free", "end_to_end"]

#: Gated end-to-end metrics and their units.
UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "capacity_rps": "1/s",
    "cpu_ms_per_req": "ms",
    "rss_mb": "MB",
}


def steal_free(steal, values, weights) -> tuple[float, float]:
    """Intercept and slope of the weighted least-squares line of the
    rate ``values`` against ``steal``; the intercept is the rate at
    zero steal.  Steal can only slow the program, so a fitted rise is
    noise: the slope is capped at 0, as it is with no spread in
    steal, and the intercept is then the weighted mean."""
    s = np.asarray(steal, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    s_bar = np.average(s, weights=w)
    y_bar = np.average(y, weights=w)
    var = np.average((s - s_bar) ** 2, weights=w)
    if var < 1e-6:
        return float(y_bar), 0.0
    slope = min(0.0, np.average((s - s_bar) * (y - y_bar), weights=w) / var)
    return float(y_bar - slope * s_bar), float(slope)


def _per_window(phase, lat_ms=None):
    """(steal, count, seconds, cpu ticks, median latency) per window
    that completed at least one operation."""
    recv = np.asarray(phase.result.recv_t)
    rows = []
    for w in phase.log.windows():
        m = (recv > w.t0) & (recv <= w.t1)
        if m.any():
            med = float(np.median(lat_ms[m])) if lat_ms is not None else 0.0
            rows.append((w.steal_share, int(m.sum()), w.t1 - w.t0,
                         w.cpu_ticks, med))
    return np.asarray(rows, dtype=np.float64)


def end_to_end(wl, setups, phases) -> tuple[dict, dict]:
    """The gated metrics, and the record of everything else measured."""
    light, sat = phases
    lat_ms = np.asarray(light.result.latencies_s) * 1e3
    lw = _per_window(light, lat_ms)
    sw = _per_window(sat)
    # Service slows as 1 / (1 - c * steal): its inverse, a rate, is
    # linear in steal, and extrapolates to zero steal without bias
    # even when a run never saw a steal-free window.
    inv_p50, p50_slope = steal_free(lw[:, 0], 1.0 / lw[:, 4], lw[:, 1])
    p50 = 1.0 / inv_p50
    cap, cap_slope = steal_free(sw[:, 0], sw[:, 1] / sw[:, 2], sw[:, 2])
    ticks = int(sw[:, 3].sum())
    # CPU time is not fitted: per-window ticks and batch-sized
    # completion counts are too lumpy, and steal moves it little.
    cpu_ms = ticks / CLK_TCK * 1e3 / sw[:, 1].sum()
    metrics = {
        "setup_s": median([(wall - stolen) / slow
                           for wall, stolen, slow in setups]),
        "p50_ms": p50 / light.slowdown,
        "capacity_rps": cap * sat.slowdown,
        "cpu_ms_per_req": cpu_ms / sat.slowdown,
        "rss_mb": wl.rss_mb(),
    }

    try:
        p99 = percentile(lat_ms, 99)
        tail = {"p99_ms": p99.value, "p99_samples": p99.count,
                "p99_beyond": p99.beyond}
    except TooFewSamples as exc:
        tail = {"p99_ms": None, "p99_refused": str(exc)}
    record = {
        "uncorrected": {
            "setup_s": median([wall for wall, _, _ in setups]),
            "p50_ms": median(lat_ms),
            "capacity_rps": (sat.result.completed_in_window
                             / (sat.result.t_end - sat.result.t_start)),
            "cpu_ms_per_req": cpu_ms,
        },
        "steal_free": {
            "setup_s": median([wall - stolen for wall, stolen, _ in setups]),
            "p50_ms": p50, "capacity_rps": cap,
        },
        "slowdown": {"setup": [round(slow, 4) for _, _, slow in setups],
                     "light": light.slowdown, "saturated": sat.slowdown},
        "steal_slopes": {"inverse_p50_ms": p50_slope,
                         "capacity_rps": cap_slope},
        "window_steal": {
            ph.name: [round(float(x), 3) for x in
                      np.percentile(rows[:, 0], [0, 50, 100])]
            for ph, rows in ((light, lw), (sat, sw))},
        "setup_runs": [{"wall_s": w, "stolen_s": st}
                       for w, st, _ in setups],
        "p99": tail,
        "cpu_ticks": ticks,
        "cpu_quantized": ticks < MIN_TICKS,
    }
    return metrics, record
