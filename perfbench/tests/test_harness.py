"""Tests of the benchmark's own code: inputs, statistics, /proc parsing.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import numpy as np
import pytest

from harness import inputs, procstat, speed, stats
from harness.tracing import Tracer

PROC_STAT = """\
cpu  59963 0 5641 278307 285 0 2528 15374 0 0
cpu0 29981 0 2820 139153 142 0 1264 7687 0 0
intr 123 4 5
"""

PID_STAT = ("4242 (repro (serve) x) S 1 4242 4242 0 -1 4194560 "
            "2000 0 0 0 731 129 0 0 20 0 3 0 123456 1000000 2000 "
            "18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")

STATUS = """\
Name:\tpython3
VmPeak:\t  300000 kB
VmHWM:\t   45056 kB
VmRSS:\t   40960 kB
"""


def test_network_is_deterministic():
    a, b = inputs.make_network(), inputs.make_network()
    assert a.n == b.n and a.m == b.m
    for field in ("first", "arc_head", "arc_len"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("make", [
    lambda seed: inputs.SweepStream(seed, 1600, 5000),
    lambda seed: inputs.LookupStream(seed, 1600),
])
def test_same_seed_same_requests(make):
    first = make(3).take(2500)  # crosses a block boundary
    assert first == make(3).take(2500)
    assert first != make(4).take(2500)


def test_request_stream_independent_of_draw_pattern():
    s1 = inputs.SweepStream(9, 1600, 5000)
    s2 = inputs.SweepStream(9, 1600, 5000)
    one_by_one = [s1.next() for _ in range(1100)]
    assert one_by_one == s2.take(600) + s2.take(500)


def test_sweep_sources_do_not_repeat_within_n():
    # Each source comes back only after n - 1 others, so the server's
    # 1024-entry search cache never hits on a sweep.
    n = 1600
    sources = [r["source"] for r in
               inputs.SweepStream(5, n, 5000).take(3 * n)]
    for lo in (0, 700, n):
        assert len(set(sources[lo:lo + n])) == n
    offline = inputs.offline_sources(5, n, 1, 2 * n + 300)
    assert len(set(offline[300:300 + n])) == n


def test_swap_weights_seeded_and_positive():
    base = np.arange(1, 101, dtype=np.int64)
    w = inputs.swap_weights(2, base, 3)
    assert np.array_equal(w, inputs.swap_weights(2, base, 3))
    assert not np.array_equal(w, inputs.swap_weights(2, base, 4))
    assert w.min() >= 1


def test_percentile_states_sample_count():
    p = stats.percentile(np.arange(1000), 99)
    assert (p.count, p.beyond) == (1000, 10)
    assert p.value == pytest.approx(np.percentile(np.arange(1000), 99))


def test_percentile_refuses_thin_tail():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(np.arange(999), 99)
    assert stats.percentile(np.arange(200), 95).beyond == 10


def test_parse_cpu_line():
    cpu = procstat.parse_cpu_line(PROC_STAT)
    assert cpu["user"] == 59963 and cpu["steal"] == 15374
    assert sum(cpu.values()) == 59963 + 5641 + 278307 + 285 + 2528 + 15374


def test_parse_pid_stat_with_parens_in_name():
    assert procstat.parse_pid_cpu_ticks(PID_STAT) == 731 + 129
    assert procstat.parse_ppid(PID_STAT) == 1


def test_parse_status():
    assert procstat.parse_status_kb(STATUS, "VmHWM") == 45056
    with pytest.raises(KeyError):
        procstat.parse_status_kb(STATUS, "VmSwap")


def test_window_log_totals_cover_own_process():
    import os

    log = procstat.WindowLog([os.getpid()], float("inf"))
    log.start(0.0)
    sum(i * i for i in range(200000))
    log.close(1.0)
    assert log.windows() == []  # the closing row opens no window
    steal, ticks = log.totals()
    assert 0.0 <= steal <= 1.0 and ticks >= 0


def test_window_log_probes_once_per_boundary():
    import os

    log = procstat.WindowLog([os.getpid()], 1.0, probe=lambda: [7.0, 8.0])
    log.start(0.0)
    for now in (0.5, 1.0, 1.5, 2.5):
        log.mark(now)
    assert len(log.rows) == 3 and log.probes == [7.0, 8.0] * 2


def test_slowdown_is_kernel_ratio_to_the_elasticity():
    ref = speed.REFERENCE_MS
    assert speed.slowdown([ref, ref]) == pytest.approx(1.0)
    assert speed.slowdown([3 * ref, 5 * ref]) == pytest.approx(
        4.0 ** speed.ELASTICITY)
    assert speed.probe_ms() > 0.0


def test_tracer_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(20000))
    (outer,) = tr.durations("outer")
    (inner,) = tr.durations("inner")
    (span,) = tr.spans("outer")
    assert span.self_s == pytest.approx(outer - inner)
    assert Tracer(enabled=False).span("x") is Tracer(enabled=False).span("y")


def test_steal_free_fit_recovers_zero_steal_value():
    from harness.score import steal_free

    steal = np.array([0.0, 0.1, 0.2, 0.3])
    assert steal_free(steal, 100 - 200 * steal, [1, 1, 1, 1]) == (
        pytest.approx(100.0), pytest.approx(-200.0))
    # Latency t / (1 - s) is fitted through its inverse, which is
    # linear in steal, so runs that never saw zero steal still recover t.
    late = steal[1:]
    inv, _slope = steal_free(late, (1 - late) / 3.0, [1, 1, 1])
    assert 1 / inv == pytest.approx(3.0)
    assert steal_free([0.1, 0.1], [4.0, 6.0], [1, 3]) == (5.5, 0.0)
    # A rate that rises with steal is noise: no extrapolation.
    assert steal_free([0.1, 0.3], [4.0, 6.0], [1, 1]) == (5.0, 0.0)


def test_window_log_rows(monkeypatch):
    rows = iter([{"user": 0, "nice": 0, "system": 0, "idle": 90,
                  "iowait": 0, "irq": 0, "softirq": 0, "steal": 10},
                 {"user": 0, "nice": 0, "system": 0, "idle": 170,
                  "iowait": 0, "irq": 0, "softirq": 0, "steal": 30}])
    monkeypatch.setattr(procstat, "read_cpu_line", lambda: next(rows))
    monkeypatch.setattr(procstat, "read_pid_cpu_ticks", lambda pid: 0)
    log = procstat.WindowLog([1], 0.5)
    log.start(0.0)
    log.mark(0.2)  # inside the first window: no row
    log.mark(0.6)
    (w,) = log.windows()
    assert (w.t0, w.t1) == (0.0, 0.6)
    assert w.steal_share == pytest.approx(0.2)
    log.end = log.rows[-1]
    assert log.totals() == (pytest.approx(0.2), 0)


def test_allowed_metrics_across_swaps():
    from harness.workloads import MetricSwap

    wl = MetricSwap.__new__(MetricSwap)
    wl.swaps = [(1, 10.0, 11.0), (2, 20.0, 21.0)]
    assert wl.allowed_metrics(5, 6) == {0}
    assert wl.allowed_metrics(10.5, 10.8) == {0, 1}
    assert wl.allowed_metrics(11.5, 12) == {1}
    assert wl.allowed_metrics(19, 22) == {1, 2}
    assert wl.allowed_metrics(21.5, 22) == {2}


def test_mixed_answer_matches_no_metric():
    from harness.check import Oracle, matches

    g = inputs.make_network()
    weights = inputs.swap_weights(1, np.asarray(g.arc_len), 1)
    oracle = Oracle({0: g, 1: inputs.reweighted(g, weights)})
    req = {"op": "tree", "source": 3}
    old, new = oracle.row(3, 0), oracle.row(3, 1)
    assert matches(oracle, req, {"ok": True, "dist": new.tolist()}, 1)
    mixed = old.copy()
    mixed[g.n // 2:] = new[g.n // 2:]
    assert not any(matches(oracle, req, {"ok": True, "dist": mixed.tolist()},
                           k) for k in (0, 1))
