"""Tests for in-sweep parents and bidirectional arc flags."""

import numpy as np
import pytest

from repro.apps import (
    arcflags_query,
    arcflags_query_bidirectional,
    compute_bidirectional_arc_flags,
    partition_graph,
)
from repro.core import PhastEngine
from repro.graph import INF
from repro.sssp import dijkstra


# -- in-sweep parents (Section VII-A) --------------------------------------


def test_sweep_parents_distances_exact(road, road_ch, road_engine, rng):
    for s in rng.integers(0, road.n, 5):
        s = int(s)
        tree = road_engine.tree_with_sweep_parents(s)
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(tree.dist, ref)


def test_sweep_parents_form_valid_gplus_tree(road, road_ch, road_engine):
    s = 13
    tree = road_engine.tree_with_sweep_parents(s)
    for v in range(road.n):
        if v == s or tree.dist[v] >= INF:
            continue
        u, hops = v, 0
        seen = set()
        while u != s:
            assert u not in seen
            seen.add(u)
            u = int(tree.parent[u])
            assert u >= 0
            hops += 1
        # Labels never increase walking toward the root.
        assert tree.dist[int(tree.parent[v])] <= tree.dist[v]


def test_sweep_parents_source_is_root(road_engine):
    tree = road_engine.tree_with_sweep_parents(7)
    assert tree.parent[7] == -1


def test_sweep_parents_repeated_queries(road, road_engine, rng):
    """No stale state across back-to-back parent queries."""
    for s in rng.integers(0, road.n, 4):
        s = int(s)
        tree = road_engine.tree_with_sweep_parents(s)
        assert tree.dist[s] == 0
        assert tree.parent[s] == -1


def test_sweep_parents_on_disconnected():
    from repro.ch import contract_graph
    from repro.graph import StaticGraph

    g = StaticGraph(4, [0, 1], [1, 0], [3, 3])
    engine = PhastEngine(contract_graph(g))
    tree = engine.tree_with_sweep_parents(0)
    assert tree.dist[1] == 3
    assert tree.parent[1] == 0
    assert tree.parent[2] == -1 and tree.dist[2] >= INF


# -- bidirectional arc flags -------------------------------------------------


@pytest.fixture(scope="module")
def biflags(small_road):
    part = partition_graph(small_road, 4)
    return compute_bidirectional_arc_flags(small_road, part, method="dijkstra")


def test_bidirectional_queries_exact(small_road, biflags, rng):
    for _ in range(30):
        s, t = (int(x) for x in rng.integers(0, small_road.n, 2))
        ref = dijkstra(small_road, s, with_parents=False).dist[t]
        got, _ = arcflags_query_bidirectional(biflags, s, t)
        assert got == ref, (s, t)


def test_bidirectional_same_vertex(small_road, biflags):
    got, _ = arcflags_query_bidirectional(biflags, 5, 5)
    assert got == 0


def test_bidirectional_scans_fewer(small_road, biflags, rng):
    bi = uni = 0
    for _ in range(20):
        s, t = (int(x) for x in rng.integers(0, small_road.n, 2))
        bi += arcflags_query_bidirectional(biflags, s, t)[1]
        uni += arcflags_query(biflags.forward, s, t)[1]
    assert bi < uni


def test_bidirectional_methods_agree(small_road, biflags):
    ph = compute_bidirectional_arc_flags(
        small_road, biflags.partition, method="phast"
    )
    assert np.array_equal(ph.forward.flags, biflags.forward.flags)
    assert np.array_equal(ph.backward.flags, biflags.backward.flags)


def test_bidirectional_unreachable():
    from repro.graph import StaticGraph

    g = StaticGraph(4, [0, 1, 2, 3], [1, 0, 3, 2], [1, 1, 1, 1])
    part = partition_graph(g, 2)
    baf = compute_bidirectional_arc_flags(g, part, method="dijkstra")
    got, _ = arcflags_query_bidirectional(baf, 0, 2)
    assert got == INF
