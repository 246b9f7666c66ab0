"""Tests for the batched independent-set contraction engine.

The batched engine must be *observationally identical* to the lazy
sequential reference: every p2p query and every PHAST tree returns the
exact Dijkstra distances, ranks/levels form a valid topological order
of the downward graph, and the shortcut count stays close (within 15%
on road-like inputs — the batched rounds decide shortcuts with
slightly less information than the strictly sequential order).
"""

from __future__ import annotations

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import CHParams, ch_query, contract_graph, contract_graph_lazy
from repro.core import PhastEngine
from repro.graph import (
    DynamicAdjacency,
    GraphBuilder,
    RoadNetworkParams,
    StaticGraph,
    cycle_graph,
    europe_like,
    grid_graph,
    road_network,
)
from repro.sssp import dijkstra

BATCHED = CHParams()


@pytest.fixture(scope="module")
def road_batched_ch(road):
    return contract_graph(road, BATCHED)


# -- hierarchy validity -------------------------------------------------------


def test_batched_hierarchy_validates(road_batched_ch):
    road_batched_ch.validate()


def test_batched_stats_shape(road_batched_ch):
    stats = road_batched_ch.preprocessing_stats
    assert stats["strategy"] == "batched"
    assert stats["rounds"] == len(stats["round_log"])
    assert stats["peak_batch"] == max(r["batch"] for r in stats["round_log"])
    assert stats["witness_searches"] > 0
    assert sum(r["batch"] for r in stats["round_log"]) == road_batched_ch.n


def test_ranks_and_levels_topological_on_downward(road_batched_ch):
    """rank is a permutation; downward arcs decrease in both rank and
    level — i.e. a valid topological order of G-down."""
    ch = road_batched_ch
    rank = ch.rank
    assert np.array_equal(np.sort(rank), np.arange(ch.n))
    down = ch.downward_rev  # stored per head: tails have higher rank
    heads = down.arc_tails()
    tails = down.arc_head
    assert np.all(ch.rank[tails] > ch.rank[heads])
    assert np.all(ch.level[tails] > ch.level[heads])


def test_independent_rounds_never_contract_neighbours(road):
    """No arc of the original graph connects two same-round vertices.

    Round membership is recovered from the round log: ranks are
    assigned contiguously per round in round order.
    """
    ch = contract_graph(road, BATCHED)
    sizes = [r["batch"] for r in ch.preprocessing_stats["round_log"]]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    round_of_rank = np.searchsorted(bounds, np.arange(ch.n), side="right") - 1
    round_of_vertex = round_of_rank[ch.rank]
    tails = road.arc_tails()
    heads = road.arc_head
    proper = tails != heads
    assert np.all(
        round_of_vertex[tails[proper]] != round_of_vertex[heads[proper]]
    )


# -- distances ----------------------------------------------------------------


def test_batched_p2p_equals_dijkstra(road, road_batched_ch):
    rng = np.random.default_rng(5)
    for _ in range(40):
        s, t = (int(x) for x in rng.integers(0, road.n, 2))
        ref = dijkstra(road, s, with_parents=False).dist[t]
        assert ch_query(road_batched_ch, s, t).distance == ref


def test_batched_phast_trees_equal_dijkstra(road, road_batched_ch):
    engine = PhastEngine(road_batched_ch)
    for s in (0, 17, 123, road.n - 1):
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(engine.tree(s).dist, ref)


@pytest.mark.parametrize(
    "graph",
    [
        grid_graph(5, 5),
        cycle_graph(9),
        road_network(RoadNetworkParams(rows=6, cols=6, seed=11)),
        europe_like(scale=9, metric="time", seed=3),
    ],
    ids=["grid", "cycle", "road6", "europe9"],
)
def test_batched_trees_on_graph_zoo(graph):
    ch = contract_graph(graph, BATCHED)
    ch.validate()
    engine = PhastEngine(ch)
    rng = np.random.default_rng(0)
    for s in rng.integers(0, graph.n, 3):
        ref = dijkstra(graph, int(s), with_parents=False).dist
        assert np.array_equal(engine.tree(int(s)).dist, ref)


def test_batched_handles_isolated_and_singleton():
    b = GraphBuilder(4)
    b.add_arc(0, 1, 2)
    b.add_arc(1, 0, 2)
    ch = contract_graph(b.build(), BATCHED)
    ch.validate()
    assert ch_query(ch, 0, 1).distance == 2
    one = contract_graph(GraphBuilder(1).build(), BATCHED)
    one.validate()
    assert one.n == 1


# -- shortcut parity ----------------------------------------------------------


def test_shortcut_count_within_15_percent(road):
    seq = contract_graph_lazy(road)
    bat = contract_graph(road, BATCHED)
    assert bat.num_shortcuts <= 1.15 * seq.num_shortcuts


# -- parallel preprocessing determinism ---------------------------------------


def _repro_segments() -> set:
    return set(glob.glob("/dev/shm/repro-*"))


def _assert_hierarchies_identical(a, b):
    """Every array that defines the hierarchy must match bit for bit."""
    assert np.array_equal(a.rank, b.rank)
    assert np.array_equal(a.level, b.level)
    assert a.num_shortcuts == b.num_shortcuts
    for side in ("upward", "downward_rev"):
        ga, gb = getattr(a, side), getattr(b, side)
        assert np.array_equal(ga.first, gb.first), side
        assert np.array_equal(ga.arc_head, gb.arc_head), side
        assert np.array_equal(ga.arc_len, gb.arc_len), side
    assert np.array_equal(a.upward_via, b.upward_via)
    assert np.array_equal(a.downward_via, b.downward_via)


def test_parallel_preprocessing_bit_identical_to_serial(road):
    before = _repro_segments()
    serial = contract_graph(road, BATCHED)
    # The serial run uses the same coordinator over an in-process pool:
    # no worker processes, no shared-memory segments.
    assert serial.preprocessing_stats["parallel"] is False
    assert serial.preprocessing_stats["workers"] == 1
    assert _repro_segments() <= before
    par = contract_graph(road, BATCHED, num_workers=2, force_pool=True)
    _assert_hierarchies_identical(serial, par)
    stats = par.preprocessing_stats
    assert stats["parallel"] is True
    assert stats["workers"] == 2
    assert stats["pool_health"]["workers_configured"] == 2
    # Same work was done, just elsewhere.
    assert (
        stats["witness_searches"]
        == serial.preprocessing_stats["witness_searches"]
    )
    # Query distances (the observable contract) agree everywhere the
    # arrays already forced them to.
    rng = np.random.default_rng(9)
    for _ in range(10):
        s, t = (int(x) for x in rng.integers(0, road.n, 2))
        assert (
            ch_query(serial, s, t).distance == ch_query(par, s, t).distance
        )


def test_parallel_preprocessing_worker_count_invariance():
    g = road_network(RoadNetworkParams(rows=8, cols=8, seed=21))
    two = contract_graph(g, BATCHED, num_workers=2, force_pool=True)
    three = contract_graph(g, BATCHED, num_workers=3, force_pool=True)
    _assert_hierarchies_identical(two, three)


def test_preprocess_workers_param_falls_back_serially(road, monkeypatch):
    """A multi-worker request on a single-CPU host (forced here)
    degrades to the in-process pool with the fallback flagged, and the
    result is the serial result."""
    import repro.utils.workers as workers_mod

    monkeypatch.setattr(workers_mod.os, "cpu_count", lambda: 1)
    ref = contract_graph(road, BATCHED)
    ch = contract_graph(road, BATCHED, num_workers=4)
    stats = ch.preprocessing_stats
    assert stats["parallel"] is False
    assert stats["fell_back"] is True
    assert stats["workers"] == 1
    _assert_hierarchies_identical(ref, ch)


# -- dynamic adjacency --------------------------------------------------------


def test_dynamic_adjacency_rebuild_preserves_arcs():
    g = grid_graph(4, 4)
    dyn = DynamicAdjacency(g, rebuild_every=1)
    before = {
        (int(t), int(h))
        for t, h in zip(*dyn.live_arc_pairs())
    }
    dyn.add_arcs(
        np.array([0, 5]), np.array([10, 12]), np.array([7, 7]),
        np.array([2, 2]),
    )
    dyn.retire(np.array([1]), removed_arcs=0)
    dyn.end_round()  # forces a rebuild (rebuild_every=1)
    after = {
        (int(t), int(h))
        for t, h in zip(*dyn.live_arc_pairs())
    }
    assert (0, 10) in after and (5, 12) in after
    assert all(1 not in pair for pair in after)
    # Every surviving original arc is still there.
    expect = {p for p in before if 1 not in p} | {(0, 10), (5, 12)}
    assert after == expect


# -- property tests -----------------------------------------------------------


@st.composite
def graphs(draw, max_n=14, max_m=40):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    tails = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    heads = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    lens = draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    return StaticGraph(n, tails, heads, lens)


@given(g=graphs(), source=st.integers(0, 13))
@settings(max_examples=50, deadline=None)
def test_batched_phast_equals_dijkstra_on_random_graphs(g, source):
    source %= g.n
    ch = contract_graph(g, BATCHED)
    ch.validate()
    ref = dijkstra(g, source, with_parents=False).dist
    assert np.array_equal(PhastEngine(ch).tree(source).dist, ref)


@given(g=graphs(), s=st.integers(0, 13), t=st.integers(0, 13))
@settings(max_examples=50, deadline=None)
def test_batched_query_equals_dijkstra_on_random_graphs(g, s, t):
    s %= g.n
    t %= g.n
    ch = contract_graph(g, BATCHED)
    ref = dijkstra(g, s, with_parents=False).dist[t]
    assert ch_query(ch, s, t).distance == ref
