"""Tests for RPHAST (target-restricted one-to-many sweeps)."""

import numpy as np
import pytest

from repro.core import RPhastEngine, SweepStructure
from repro.core.pool import _hierarchy_arrays
from repro.graph import INF
from repro.sssp import dijkstra


def test_distances_match_dijkstra(road, road_ch, rng):
    targets = rng.integers(0, road.n, 12)
    engine = RPhastEngine(road_ch, targets)
    for s in rng.integers(0, road.n, 6):
        s = int(s)
        ref = dijkstra(road, s, with_parents=False).dist
        got = engine.distances(s)
        assert np.array_equal(got, ref[engine.targets])


def test_single_target(road, road_ch):
    engine = RPhastEngine(road_ch, [17])
    ref = dijkstra(road, 3, with_parents=False).dist[17]
    assert engine.distances(3)[0] == ref


def test_duplicate_targets_collapsed(road_ch):
    engine = RPhastEngine(road_ch, [5, 5, 9, 9, 5])
    assert engine.targets.tolist() == [5, 9]


def test_all_targets_equals_phast(road, road_ch, road_engine):
    engine = RPhastEngine(road_ch, np.arange(road.n))
    assert engine.size == road.n
    ref = road_engine.tree(7).dist
    got = engine.distances(7)
    assert np.array_equal(got, ref[engine.targets])


def test_full_selection_is_the_sweep_structure(road, road_ch):
    """RPHAST's structure is PHAST's restricted: selecting every vertex
    reproduces the full structure array for array, dtypes included."""
    full = SweepStructure(road_ch)
    engine = RPhastEngine(road_ch, range(road.n))
    assert engine.sweep.num_levels == full.num_levels
    for key in (*SweepStructure.KEYS, "pos_of"):
        got, ref = getattr(engine.sweep, key), getattr(full, key)
        assert got.dtype == ref.dtype, key
        assert np.array_equal(got, ref), key


def test_selection_publishes_the_generation_format(road_ch):
    """A selection publishes a generation's ``sw:`` keys plus its
    targets: 32-bit arc arrays, and no ``pos_of``."""
    arrays = RPhastEngine(road_ch, [0, 1]).selection_arrays()
    sweep_keys = {key for key in _hierarchy_arrays(road_ch)
                  if key.startswith("sw:")}
    assert set(arrays) == sweep_keys | {"targets"}
    assert "sw:pos_of" not in arrays
    for key in ("sw:arc_first", "sw:arc_tail_pos", "sw:arc_len"):
        assert arrays[key].dtype == np.int32, key


def test_selection_is_small_for_few_targets(road, road_ch):
    engine = RPhastEngine(road_ch, [0, 1])
    assert engine.size < road.n
    full_arcs = road_ch.downward_rev.m
    assert engine.num_arcs < full_arcs


def test_selection_grows_with_targets(road, road_ch, rng):
    few = RPhastEngine(road_ch, rng.integers(0, road.n, 2))
    many = RPhastEngine(road_ch, rng.integers(0, road.n, 64))
    assert few.size <= many.size


def test_all_selected_labels_consistent(road, road_ch, rng):
    """Labels of every selected vertex are correct (not just targets)."""
    targets = rng.integers(0, road.n, 8)
    engine = RPhastEngine(road_ch, targets)
    s = 11
    ref = dijkstra(road, s, with_parents=False).dist
    labels = engine.distances(s, all_selected=True)
    # Selected labels may exceed true distances only for non-target
    # vertices whose shortest path leaves the restricted cone — but the
    # PHAST argument makes every selected vertex's label exact, since
    # selection is closed under downward predecessors.
    assert np.array_equal(labels, ref[engine.vertex_at])


def test_many_to_many_matrix(road, road_ch, rng):
    sources = [int(x) for x in rng.integers(0, road.n, 4)]
    targets = rng.integers(0, road.n, 6)
    engine = RPhastEngine(road_ch, targets)
    matrix = engine.many_to_many(sources)
    assert matrix.shape == (4, engine.targets.size)
    for i, s in enumerate(sources):
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(matrix[i], ref[engine.targets])


def test_unreachable_targets():
    from repro.ch import contract_graph
    from repro.graph import StaticGraph

    g = StaticGraph(4, [0, 1, 2, 3], [1, 0, 3, 2], [1, 1, 2, 2])
    ch = contract_graph(g)
    engine = RPhastEngine(ch, [1, 3])
    d = engine.distances(0)
    assert d[engine.targets.tolist().index(1)] == 1
    assert d[engine.targets.tolist().index(3)] == INF


def test_validation():
    import pytest

    from repro.ch import contract_graph
    from repro.graph import path_graph

    ch = contract_graph(path_graph(4))
    with pytest.raises(ValueError):
        RPhastEngine(ch, [])
    with pytest.raises(ValueError):
        RPhastEngine(ch, [9])


def test_repeated_queries_no_stale_state(road, road_ch, rng):
    engine = RPhastEngine(road_ch, rng.integers(0, road.n, 10))
    for s in rng.integers(0, road.n, 6):
        s = int(s)
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(engine.distances(s), ref[engine.targets])
