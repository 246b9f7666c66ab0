"""Unit and integration tests for contraction hierarchies.

The hierarchy-validity and Dijkstra-parity tests run every check on
both contractors: the round pipeline every caller gets
(``contract_graph``, which also builds the ``road_ch`` fixtures) and
the paper's heap contractor it is checked against
(``contract_graph_lazy``).
"""

import numpy as np
import pytest

from repro.ch import (
    CHParams,
    ch_query,
    contract_graph,
    contract_graph_lazy,
    unpack_arc,
    upward_search,
)
from repro.graph import INF, StaticGraph, grid_graph, path_graph
from repro.sssp import dijkstra

CONTRACTORS = (contract_graph, contract_graph_lazy)


@pytest.fixture(scope="module")
def road_lazy_ch(road):
    return contract_graph_lazy(road)


def test_hierarchy_invariants(road_ch, road_lazy_ch):
    for ch in (road_ch, road_lazy_ch):
        ch.validate()


def test_every_vertex_contracted(road_ch, road_lazy_ch):
    for ch in (road_ch, road_lazy_ch):
        assert np.array_equal(np.sort(ch.rank), np.arange(ch.n))


def test_level_zero_is_large(road_ch):
    """Road networks put a large share of vertices at level 0 (Fig. 1)."""
    hist = road_ch.level_histogram()
    assert hist[0] >= road_ch.n * 0.2
    # Counts are (weakly) top-heavy at the bottom: the lowest level is
    # the largest.
    assert hist[0] == hist.max()


def test_shortcut_counts_reasonable(road, road_ch):
    # The paper adds fewer shortcuts than original arcs on road graphs.
    assert road_ch.num_shortcuts < road.m
    stats = road_ch.preprocessing_stats
    assert stats["witness_searches"] > 0
    assert stats["upward_arcs"] > 0


def test_upward_downward_partition(road, road_ch):
    # Every original (non-loop) arc appears in exactly one direction.
    assert road_ch.upward.m + road_ch.downward_rev.m >= road.m
    # Symmetric input => both graphs have the same arc count.
    assert road_ch.upward.m == road_ch.downward_rev.m


def test_ch_query_matches_dijkstra(road, road_ch, road_lazy_ch, rng):
    for _ in range(30):
        s, t = (int(x) for x in rng.integers(0, road.n, 2))
        ref = dijkstra(road, s, with_parents=False).dist[t]
        for ch in (road_ch, road_lazy_ch):
            assert ch_query(ch, s, t).distance == ref, (s, t)


def test_ch_query_same_vertex(road_ch):
    q = ch_query(road_ch, 3, 3)
    assert q.distance == 0


def test_ch_query_search_space_is_small(road, road_ch, rng):
    """CH queries settle far fewer vertices than Dijkstra."""
    settled = []
    for _ in range(20):
        s, t = (int(x) for x in rng.integers(0, road.n, 2))
        q = ch_query(road_ch, s, t)
        settled.append(q.settled_forward + q.settled_backward)
    assert np.mean(settled) < road.n / 3


def test_ch_query_unreachable():
    g = StaticGraph(3, [0, 1], [1, 0], [1, 1])  # vertex 2 isolated
    for contract in CONTRACTORS:
        q = ch_query(contract(g), 0, 2)
        assert q.distance == INF
        assert q.meeting == -1


def test_ch_query_path_unpacking(road, road_ch, road_lazy_ch, rng):
    for _ in range(15):
        s, t = (int(x) for x in rng.integers(0, road.n, 2))
        for ch in (road_ch, road_lazy_ch):
            q = ch_query(ch, s, t, unpack=True)
            assert q.path is not None
            assert q.path[0] == s and q.path[-1] == t
            total = sum(
                road.arc_length(a, b) for a, b in zip(q.path, q.path[1:])
            )
            assert total == q.distance


def test_path_gplus_ranks_bitonic(road_ch, rng):
    """G+ paths ascend in rank to the meeting vertex, then descend."""
    for _ in range(10):
        s, t = (int(x) for x in rng.integers(0, road_ch.n, 2))
        q = ch_query(road_ch, s, t, with_path=True)
        if q.path_gplus is None or len(q.path_gplus) < 2:
            continue
        ranks = road_ch.rank[np.array(q.path_gplus)]
        peak = int(np.argmax(ranks))
        assert np.all(np.diff(ranks[: peak + 1]) > 0)
        assert np.all(np.diff(ranks[peak:]) < 0)


def test_unpack_arc_original(road, road_ch):
    # Unpacking an original arc returns its two endpoints.
    u = int(road_ch.upward.arc_tails()[0])
    v = int(road_ch.upward.arc_head[road_ch.upward.first[u]])
    if road_ch.upward_via[road_ch.upward.first[u]] < 0:
        assert unpack_arc(road_ch, u, v) == [u, v]


def test_upward_search_covers_source(road_ch):
    space = upward_search(road_ch, 11)
    assert 11 in space.vertices.tolist()
    i = space.vertices.tolist().index(11)
    assert space.dists[i] == 0
    assert space.parents[i] == -1


def test_upward_search_is_small(road_ch):
    sizes = [upward_search(road_ch, s).size for s in range(0, road_ch.n, 37)]
    assert np.mean(sizes) < road_ch.n / 4


def test_upward_search_labels_are_upper_bounds(road, road_ch):
    ref = dijkstra(road, 0, with_parents=False).dist
    space = upward_search(road_ch, 0)
    assert np.all(space.dists >= ref[space.vertices])


def test_path_graph_hierarchy():
    g = path_graph(6, length=2)
    for contract in CONTRACTORS:
        ch = contract(g)
        ch.validate()
        for t in range(6):
            assert ch_query(ch, 0, t).distance == 2 * t


def test_grid_with_ties():
    """Uniform lengths produce many ties; CH must stay correct."""
    g = grid_graph(6, 6)
    for contract in CONTRACTORS:
        ch = contract(g)
        for s in (0, 17, 35):
            ref = dijkstra(g, s, with_parents=False).dist
            for t in (0, 5, 30, 35):
                assert ch_query(ch, s, t).distance == ref[t]


def test_single_vertex_graph():
    g = StaticGraph(1, [], [], [])
    for contract in CONTRACTORS:
        ch = contract(g)
        assert ch.n == 1
        assert ch_query(ch, 0, 0).distance == 0


def test_two_vertex_graph():
    g = StaticGraph(2, [0, 1], [1, 0], [5, 7])
    for contract in CONTRACTORS:
        ch = contract(g)
        assert ch_query(ch, 0, 1).distance == 5
        assert ch_query(ch, 1, 0).distance == 7


def test_custom_params_still_correct(small_road):
    """Exotic priority weights change the order, never correctness."""
    params = CHParams(ed_weight=1, cn_weight=0, h_weight=0, level_weight=1)
    ref = dijkstra(small_road, 0, with_parents=False).dist
    for contract in CONTRACTORS:
        ch = contract(small_road, params)
        ch.validate()
        for t in (1, 20, 63):
            assert ch_query(ch, 0, t).distance == ref[t]


def test_hop_limit_schedule_affects_shortcuts(small_road):
    """Stricter hop limits may add more (but never fewer) shortcuts."""
    strict = CHParams(hop_schedule=((None, 1),))
    loose = CHParams(hop_schedule=((None, None),))
    ch_strict = contract_graph(small_road, strict)
    ch_loose = contract_graph(small_road, loose)
    assert ch_strict.num_shortcuts >= ch_loose.num_shortcuts
    # Both stay correct.
    ref = dijkstra(small_road, 3, with_parents=False).dist
    assert ch_query(ch_strict, 3, 60).distance == ref[60]
    assert ch_query(ch_loose, 3, 60).distance == ref[60]


def test_witness_max_settled_stays_correct(small_road):
    """Capping witness searches adds shortcuts but never breaks CH."""
    params = CHParams(witness_max_settled=3)
    ch = contract_graph(small_road, params)
    ch.validate()
    baseline = contract_graph(small_road)
    assert ch.num_shortcuts >= baseline.num_shortcuts
    ref = dijkstra(small_road, 1, with_parents=False).dist
    for t in (0, 30, 63):
        assert ch_query(ch, 1, t).distance == ref[t]


def test_parallel_arcs_and_self_loops():
    g = StaticGraph(
        3,
        [0, 0, 0, 1, 2, 1],
        [1, 1, 0, 2, 0, 1],
        [9, 4, 3, 2, 1, 5],
    )
    ref = dijkstra(g, 0, with_parents=False).dist
    for contract in CONTRACTORS:
        ch = contract(g)
        for t in range(3):
            assert ch_query(ch, 0, t).distance == ref[t]


def test_asymmetric_graph():
    """Directed cycle: upward/downward arc counts differ."""
    g = StaticGraph(4, [0, 1, 2, 3], [1, 2, 3, 0], [1, 1, 1, 1])
    ref = dijkstra(g, 1, with_parents=False).dist
    for contract in CONTRACTORS:
        ch = contract(g)
        for t in range(4):
            assert ch_query(ch, 1, t).distance == ref[t]
