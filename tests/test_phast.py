"""Unit and integration tests for the PHAST engines."""

import numpy as np
import pytest

from repro.core import (
    PhastEngine,
    RPhastEngine,
    SweepStructure,
    phast_original_order,
    phast_scalar,
)
from repro.graph import INF, StaticGraph
from repro.sssp import dijkstra


# -- sweep structure ----------------------------------------------------


def test_sweep_positions_are_level_sorted(road_ch):
    sw = SweepStructure(road_ch)
    levels_at_pos = road_ch.level[sw.vertex_at]
    assert np.all(np.diff(levels_at_pos) <= 0)  # descending


def test_sweep_permutation_roundtrip(road_ch):
    sw = SweepStructure(road_ch)
    assert np.array_equal(sw.pos_of[sw.vertex_at], np.arange(sw.n))


def test_sweep_level_slices_cover_everything(road_ch):
    sw = SweepStructure(road_ch)
    total_v = sum(
        sw.level_slice(i)[1] - sw.level_slice(i)[0] for i in range(sw.num_levels)
    )
    assert total_v == sw.n
    total_a = sum(
        sw.level_arc_slice(i)[1] - sw.level_arc_slice(i)[0]
        for i in range(sw.num_levels)
    )
    assert total_a == sw.num_arcs


def test_sweep_arcs_point_upward(road_ch):
    """Every arc's tail must be at a strictly earlier sweep position."""
    sw = SweepStructure(road_ch)
    heads = np.repeat(np.arange(sw.n), np.diff(sw.arc_first))
    assert np.all(sw.arc_tail_pos < heads)


def test_sweep_arrays_narrowed_to_gpu_layout(road_ch):
    """Small instances store 4-byte arc entries, matching the GPU
    model's ARC_BYTES=8 (tail+len) and FIRST_BYTES=4 accounting."""
    sw = SweepStructure(road_ch)
    assert sw.arc_tail_pos.dtype == np.int32
    assert sw.arc_len.dtype == np.int32
    assert sw.arc_first.dtype == np.int32
    assert sw.nbytes == (
        4 * (sw.n + 1) + 8 * sw.num_arcs + sw.level_first.nbytes
    )


def test_sweep_arc_count_matches_downward(road_ch):
    sw = SweepStructure(road_ch)
    assert sw.num_arcs == road_ch.downward_rev.m


def test_sweep_level_sizes_match_histogram(road_ch):
    sw = SweepStructure(road_ch)
    assert np.array_equal(
        sw.level_sizes(), road_ch.level_histogram()[::-1]
    )


# -- single-tree correctness ----------------------------------------------


@pytest.mark.parametrize("source", [0, 13, 150, 399])
def test_phast_matches_dijkstra(road, road_ch, road_engine, source):
    ref = dijkstra(road, source, with_parents=False).dist
    assert np.array_equal(road_engine.tree(source).dist, ref)


def test_phast_no_reorder_matches(road, road_ch):
    tree = phast_original_order(road_ch)
    for s in (42, 7):
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(tree(s).dist, ref)


def test_phast_explicit_init_matches(road, road_ch):
    engine = PhastEngine(road_ch, explicit_init=True)
    ref = dijkstra(road, 42, with_parents=False).dist
    assert np.array_equal(engine.tree(42).dist, ref)


def test_phast_scalar_reference(road, road_ch):
    ref = dijkstra(road, 9, with_parents=False).dist
    assert np.array_equal(phast_scalar(road_ch, 9).dist, ref)


def test_back_to_back_queries_no_stale_state(road, road_ch, road_engine, rng):
    """Implicit initialization must not leak labels across queries."""
    for s in rng.integers(0, road.n, 8):
        s = int(s)
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(road_engine.tree(s).dist, ref)


def test_phast_on_disconnected_graph():
    from repro.ch import contract_graph

    g = StaticGraph(5, [0, 1, 3, 4], [1, 0, 4, 3], [2, 2, 3, 3])
    ch = contract_graph(g)
    engine = PhastEngine(ch)
    t = engine.tree(0)
    assert t.dist[1] == 2
    assert t.dist[3] == INF and t.dist[4] == INF
    t = engine.tree(3)
    assert t.dist[4] == 3
    assert t.dist[0] == INF


def test_phast_sparse_random(sparse_random, sparse_random_ch, rng):
    """Correctness holds on non-road graphs too (only speed suffers)."""
    engine = PhastEngine(sparse_random_ch)
    for s in rng.integers(0, sparse_random.n, 5):
        s = int(s)
        ref = dijkstra(sparse_random, s, with_parents=False).dist
        assert np.array_equal(engine.tree(s).dist, ref)


# -- parents -------------------------------------------------------------


def test_phast_gplus_parents(road, road_ch, road_engine):
    t = road_engine.tree(8, with_parents=True)
    # Parents describe a connected tree in G+ rooted at the source;
    # walking up must terminate at the source with consistent labels.
    for v in range(road.n):
        if t.dist[v] >= INF or v == 8:
            continue
        hops = 0
        u = v
        while u != 8:
            u = int(t.parent[u])
            assert u >= 0
            hops += 1
            assert hops <= road.n
        assert t.dist[int(t.parent[v])] <= t.dist[v]


# -- multi-tree -----------------------------------------------------------


def test_multi_tree_matches_single(road, road_ch, road_engine, rng):
    sources = rng.integers(0, road.n, 8)
    multi = road_engine.trees(sources)
    assert multi.shape == (8, road.n)
    for i, s in enumerate(sources):
        assert np.array_equal(multi[i], road_engine.tree(int(s)).dist)


def test_multi_tree_duplicated_sources(road_engine):
    multi = road_engine.trees([5, 5, 5])
    assert np.array_equal(multi[0], multi[1])
    assert np.array_equal(multi[1], multi[2])


def test_multi_tree_k1(road, road_engine):
    ref = dijkstra(road, 3, with_parents=False).dist
    assert np.array_equal(road_engine.trees([3])[0], ref)


def test_multi_tree_k_change_reallocates(road_engine):
    a = road_engine.trees([1, 2])
    b = road_engine.trees([1, 2, 3])
    assert a.shape[0] == 2 and b.shape[0] == 3


def test_lane_buffers_reused_across_widths(road, road_ch):
    """One engine serving k = 3, 1, 5 lanes in turn stays exact."""
    engine = PhastEngine(road_ch)
    restricted = RPhastEngine(road_ch, [0, 57, 399])
    for sources in ([11, 200, 399], [42], [0, 5, 77, 150, 321]):
        refs = [dijkstra(road, s, with_parents=False).dist for s in sources]
        multi = engine.trees(sources)
        lanes = restricted.sweep_lanes(sources)
        for i, ref in enumerate(refs):
            assert np.array_equal(multi[i], ref)
            assert np.array_equal(lanes[i], ref[restricted.targets])


def test_multi_tree_no_sources(road, road_ch):
    engine = PhastEngine(road_ch)
    assert engine.trees([]).shape == (0, road.n)
    assert engine.trees(np.array([], dtype=np.int64)).shape == (0, road.n)
    assert RPhastEngine(road_ch, [1, 2]).sweep_lanes([]).shape == (0, 2)


def test_multi_tree_out_shape_checked_before_sweep(road_ch):
    engine = PhastEngine(road_ch, search_cache=4)
    with pytest.raises(ValueError):
        engine.trees([1, 2], out=np.empty((3, road_ch.n), dtype=np.int64))
    assert engine.search_cache_misses == 0  # rejected before any search


def test_engine_stats_recorded(road_engine):
    road_engine.tree(0)
    assert road_engine.last_stats["ch_search_size"] > 0


# ---------------------------------------------------------------------------
# Upward search-space cache


def test_search_cache_bit_identical(road, road_ch, road_engine, rng):
    """Caching upward search spaces must not change a single distance."""
    cached = PhastEngine(road_ch, search_cache=8)
    sources = [int(s) for s in rng.integers(0, road.n, 6)]
    for _ in range(3):  # repeat visits hit the cache
        for s in sources:
            assert np.array_equal(cached.tree(s).dist, road_engine.tree(s).dist)
        multi = cached.trees(sources)
        for i, s in enumerate(sources):
            assert np.array_equal(multi[i], road_engine.tree(s).dist)
    assert cached.search_cache_hits > 0


def test_search_cache_counters_and_eviction(road_ch):
    cached = PhastEngine(road_ch, search_cache=4)
    for s in range(6):  # 6 distinct sources through a 4-entry cache
        cached.tree(s)
    assert cached.search_cache_misses == 6
    assert cached.search_cache_hits == 0
    assert cached.kernel.cache_info()["entries"] == 4
    cached.tree(5)  # most recent entry: a hit, no new insertion
    assert cached.search_cache_hits == 1
    assert cached.kernel.cache_info()["entries"] == 4
    cached.tree(0)  # LRU-evicted earlier: a miss again
    assert cached.search_cache_misses == 7


def test_search_cache_disabled_by_default(road_ch):
    engine = PhastEngine(road_ch)
    engine.tree(1)
    engine.tree(1)
    assert engine.search_cache_hits == 0
    assert engine.kernel.cache_info()["entries"] == 0
