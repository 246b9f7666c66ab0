"""Coverage for small utilities and cross-cutting properties."""

import gc
import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    StaticGraph,
    load_graph,
    random_order,
    read_gr,
    save_graph,
    write_gr,
)
from repro.sssp.result import ShortestPathTree
from repro.utils import Timer, bulk_compute, median_of_repeats


# -- bulk_compute ---------------------------------------------------------


def test_bulk_compute_pauses_and_never_collects(monkeypatch):
    """Nested uses keep the collector off until the outermost exit,
    which restores it without a full collection."""
    calls = []
    monkeypatch.setattr(gc, "collect", lambda *args: calls.append(args) or 0)
    assert gc.isenabled()
    with bulk_compute():
        with bulk_compute():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    gc.disable()
    try:
        with bulk_compute():
            pass
        assert not gc.isenabled()  # was off: stays off
    finally:
        gc.enable()
    assert calls == []


# -- timing utilities ---------------------------------------------------


def test_timer_measures():
    with Timer() as t:
        time.sleep(0.01)
    assert 0.005 < t.seconds < 1.0
    assert t.millis == pytest.approx(t.seconds * 1e3)


def test_median_of_repeats():
    calls = []
    out = median_of_repeats(lambda: calls.append(1), repeats=5)
    assert len(calls) == 5
    assert out >= 0.0


def test_median_of_repeats_minimum_one():
    calls = []
    median_of_repeats(lambda: calls.append(1), repeats=0)
    assert len(calls) == 1


# -- result container -----------------------------------------------------


def test_shortest_path_tree_reached():
    from repro.graph.csr import INF

    t = ShortestPathTree(
        source=0, dist=np.array([0, 5, INF], dtype=np.int64)
    )
    assert t.reached().tolist() == [True, True, False]


def test_path_to_detects_broken_chain():
    dist = np.array([0, 1, 2], dtype=np.int64)
    parent = np.array([-1, 0, -1], dtype=np.int64)  # 2 has no parent
    t = ShortestPathTree(source=0, dist=dist, parent=parent)
    with pytest.raises(ValueError):
        t.path_to(2)


# -- hypothesis: serialization and format roundtrips ------------------------


@st.composite
def tiny_graphs(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 16))
    tails = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    heads = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    lens = draw(st.lists(st.integers(0, 100), min_size=m, max_size=m))
    return StaticGraph(n, tails, heads, lens)


@given(g=tiny_graphs())
@settings(max_examples=40, deadline=None)
def test_npz_roundtrip_property(g, tmp_path_factory):
    path = tmp_path_factory.mktemp("ser") / "g.npz"
    save_graph(g, path)
    assert load_graph(path) == g


@given(g=tiny_graphs())
@settings(max_examples=40, deadline=None)
def test_gr_roundtrip_property(g):
    buf = io.StringIO()
    write_gr(g, buf)
    buf.seek(0)
    assert read_gr(buf) == g


# -- hypothesis: distances are invariant under relabeling -------------------


@given(g=tiny_graphs(), seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_ch_distance_permutation_invariance(g, seed):
    from repro.ch import ch_query, contract_graph

    perm = random_order(g.n, seed=seed)
    h = g.permute(perm)
    ch_g = contract_graph(g)
    ch_h = contract_graph(h)
    s, t = 0, g.n - 1
    assert (
        ch_query(ch_g, s, t).distance
        == ch_query(ch_h, int(perm[s]), int(perm[t])).distance
    )


# -- latency histogram -------------------------------------------------------


def test_latency_histogram_percentiles_bounded_error():
    from repro.utils import LatencyHistogram

    h = LatencyHistogram()
    rng = np.random.default_rng(0)
    samples = rng.lognormal(mean=-6.0, sigma=1.0, size=5000)  # ~2.5ms median
    for s in samples:
        h.observe(float(s))
    assert h.count == len(samples)
    assert np.isclose(h.mean, samples.mean())
    assert np.isclose(h.min, samples.min())
    assert np.isclose(h.max, samples.max())
    for p in (10, 50, 90, 99):
        exact = float(np.percentile(samples, p))
        got = h.percentile(p)
        # One geometric bucket of relative error at 12 buckets/decade.
        assert abs(got - exact) / exact < 0.25, (p, got, exact)
    # Percentiles are monotone and clamped to the observed range.
    qs = [h.percentile(p) for p in range(0, 101, 5)]
    assert qs == sorted(qs)
    assert h.min <= qs[0] and qs[-1] <= h.max


def test_latency_histogram_merge_equals_union():
    from repro.utils import LatencyHistogram

    a, b, union = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    rng = np.random.default_rng(1)
    xs, ys = rng.exponential(0.01, 300), rng.exponential(0.05, 200)
    for x in xs:
        a.observe(float(x))
        union.observe(float(x))
    for y in ys:
        b.observe(float(y))
        union.observe(float(y))
    a.merge(b)
    assert a.count == union.count
    assert np.isclose(a.total, union.total)
    assert a.summary() == union.summary()


def test_latency_histogram_edge_cases():
    from repro.utils import LatencyHistogram

    h = LatencyHistogram()
    assert h.summary() == {"count": 0}
    assert h.percentile(50) == 0.0
    h.observe(0.0)          # below min_value: clamped into first bucket
    h.observe(500.0)        # above max_value: overflow bucket
    assert h.count == 2
    assert h.max == 500.0 and h.min == 0.0
    assert h.percentile(100) == 500.0
    with pytest.raises(ValueError):
        h.observe(-1.0)
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.merge(LatencyHistogram(buckets_per_decade=5))
