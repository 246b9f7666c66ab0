"""Perfect customization and the pruned per-metric hierarchy.

After :func:`~repro.ch.customize` every closure weight is the exact
distance between its endpoints, and :meth:`CHTopology.instantiate`
serves only the arcs no upper or intermediate triangle replaces.  The
invariants: trees equal Dijkstra on any graph (asymmetric, parallel
arcs, self-loops, zero lengths), kept weights equal their Dijkstra
distance, unpacked paths add up to the distance, and the compiled
kernels equal their NumPy fallbacks bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import build_topology, ch_query, customize
from repro.ch.customize import INF
from repro.core import PhastEngine, PhastPool
from repro.graph import (
    StaticGraph,
    europe_like,
    load_metric,
    load_topology,
    random_graph,
    save_metric,
    save_topology,
)
from repro.graph.serialize import ArtifactFormatError
from repro.sssp import dijkstra
from repro.utils import native


@st.composite
def multigraphs(draw):
    """Small asymmetric multigraphs: parallel arcs, self-loops, zeros."""
    n = draw(st.integers(min_value=1, max_value=12))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.integers(0, 3)),
        max_size=40,
    ))
    tails, heads, lens = (np.array(c, dtype=np.int64).reshape(-1)
                          for c in zip(*arcs)) if arcs else ([], [], [])
    return StaticGraph(n, tails, heads, lens)


def _reweigh(graph: StaticGraph, weights) -> StaticGraph:
    return StaticGraph.from_csr(
        graph.first, graph.arc_head, np.asarray(weights, dtype=np.int64)
    )


def _assert_trees_exact(graph: StaticGraph, trees) -> None:
    for s in range(graph.n):
        assert np.array_equal(trees[s], dijkstra(graph, s).dist), s


def _assert_kept_weights_exact(graph, topo, metric) -> None:
    kept = np.flatnonzero(metric.keep)
    for a in kept:
        d = dijkstra(graph, int(topo.arc_tail[a])).dist[topo.arc_head[a]]
        assert metric.weights[a] == d


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_pruned_hierarchy_exact_across_swap(graph, seed):
    topo = build_topology(graph)
    metric = customize(topo, graph.arc_len)
    ch = topo.instantiate(metric)
    ch.validate()
    _assert_kept_weights_exact(graph, topo, metric)
    _assert_trees_exact(graph, [PhastEngine(ch).tree(s).dist
                                for s in range(graph.n)])

    rng = np.random.default_rng(seed)
    new_w = rng.integers(0, 4, size=graph.m, dtype=np.int64)
    reweighed = _reweigh(graph, new_w)
    new_metric = customize(topo, new_w)
    new_ch = topo.instantiate(new_metric)
    new_ch.validate()
    _assert_kept_weights_exact(reweighed, topo, new_metric)
    sources = list(range(graph.n))
    with PhastPool(ch, num_workers=1) as pool:
        _assert_trees_exact(graph, pool.trees(sources))
        assert pool.swap_metric(new_ch) == 1
        _assert_trees_exact(reweighed, pool.trees(sources))


@pytest.mark.parametrize("seed", range(4))
def test_zero_length_ties_keep_a_path(seed):
    """Weights in {0, 1, 2}: zero-weight cycles everywhere; pruning must
    never drop every arc of one."""
    g = random_graph(60, 200, max_len=2, seed=seed, connected=True)
    topo = build_topology(g)
    engine = PhastEngine(topo.instantiate(customize(topo, g.arc_len)))
    _assert_trees_exact(g, [engine.tree(s).dist for s in range(g.n)])


def test_pruned_hierarchy_is_smaller(road):
    topo = build_topology(road)
    metric = customize(topo, road.arc_len)
    ch = topo.instantiate(metric)
    assert ch.upward.m + ch.downward_rev.m == metric.stats["kept_arcs"]
    assert metric.stats["kept_arcs"] < topo.num_arcs
    assert ch.num_levels <= topo.stats["levels"]


def test_one_way_arcs_instantiate(sparse_random):
    """Reverse arcs the symmetric closure adds carry no base weight;
    they are pruned, not refused."""
    topo = build_topology(sparse_random)
    metric = customize(topo, sparse_random.arc_len)
    assert metric.unreachable_base_arcs == 0
    ch = topo.instantiate(metric)
    ch.validate()
    engine = PhastEngine(ch)
    for s in range(0, sparse_random.n, 13):
        assert np.array_equal(engine.tree(s).dist,
                              dijkstra(sparse_random, s).dist)


def _min_arc(graph: StaticGraph, u: int, v: int) -> int:
    lo, hi = graph.first[u], graph.first[u + 1]
    heads = graph.arc_head[lo:hi]
    return int(graph.arc_len[lo:hi][heads == v].min())


@pytest.mark.parametrize("kind", ["road", "random", "europe", "zeros"])
def test_unpacked_paths_sum_to_distance(kind, road, sparse_random):
    graph = {
        "road": road,
        "random": sparse_random,
        "europe": europe_like(40, seed=1),
        "zeros": random_graph(80, 300, max_len=2, seed=5, connected=True),
    }[kind]
    topo = build_topology(graph)
    metric = customize(topo, graph.arc_len)
    # Every via splits a kept arc into two kept arcs.
    kept = np.flatnonzero(metric.keep)
    served = set(zip(topo.arc_tail[kept].tolist(),
                     topo.arc_head[kept].tolist()))
    for a in kept[metric.via[kept] >= 0]:
        u, v, w = topo.arc_tail[a], metric.via[a], topo.arc_head[a]
        assert (u, v) in served and (v, w) in served
    ch = topo.instantiate(metric)
    rng = np.random.default_rng(9)
    for s, t in rng.integers(0, graph.n, size=(100, 2)):
        result = ch_query(ch, int(s), int(t), unpack=True)
        assert result.distance == dijkstra(graph, int(s)).dist[t]
        if result.distance >= INF:
            continue
        path = result.path
        assert path[0] == s and path[-1] == t
        assert sum(_min_arc(graph, u, v) for u, v in zip(path, path[1:])) \
            == result.distance


# ---------------------------------------------------------------------------
# Native kernels == NumPy fallbacks


def _passes(topo, weights) -> dict:
    """Every pass's output, run the way :func:`customize` runs them."""
    m = topo.num_arcs
    inf = int(INF)
    w = np.full(m, INF, dtype=np.int64)
    h = np.zeros(m, dtype=np.int32)
    win = np.full(m, -1, dtype=np.int32)
    valid = topo.base_map >= 0
    np.minimum.at(w, topo.base_map[valid], weights[valid])
    h[topo.base_map[valid]] = 1
    tri = (topo.tri_in, topo.tri_out, topo.tri_target)
    lf = topo.tri_level_first
    out = {}
    out["customize_native"] = native.customize_pass(w, h, win, *tri, lf, inf)
    out["basic_w"], out["basic_h"], out["win"] = w.copy(), h.copy(), win
    keep = np.ones(m, dtype=bool)
    out["perfect_native"] = native.perfect_pass(
        w, h, topo.rev, *tri, lf, keep, inf)
    out["w"], out["h"], out["keep"] = w, h, keep
    metric = customize(topo, weights)
    out["metric_w"], out["metric_via"] = metric.weights, metric.via
    return out


@pytest.mark.parametrize("kind", ["road", "random", "zeros"])
def test_native_and_numpy_bit_identical(kind, road, sparse_random,
                                        monkeypatch):
    if not native.native_available():
        pytest.skip("no C compiler: only the NumPy path exists")
    graph = {
        "road": road,
        "random": sparse_random,
        "zeros": random_graph(80, 300, max_len=2, seed=5, connected=True),
    }[kind]
    topo = build_topology(graph)
    weights = np.asarray(graph.arc_len, dtype=np.int64)
    fast = _passes(topo, weights)
    monkeypatch.setattr(native, "_lib", False)
    slow = _passes(topo, weights)
    assert fast["customize_native"] and not slow["customize_native"]
    assert fast["perfect_native"] and not slow["perfect_native"]
    for key in ("basic_w", "basic_h", "w", "h", "keep", "win",
                "metric_w", "metric_via"):
        assert np.array_equal(fast[key], slow[key]), key


# ---------------------------------------------------------------------------
# Artifacts from before perfect customization


def test_old_artifacts_are_refused(tmp_path, small_road):
    topo = build_topology(small_road)
    metric = customize(topo, small_road.arc_len)
    tp, mp = tmp_path / "t.npz", tmp_path / "m.npz"
    save_topology(topo, tp)
    save_metric(metric, mp)
    old_topo = dict(np.load(tp))
    old_topo["magic"] = np.array("repro-topo-v1")
    np.savez(tp, **old_topo)
    np.savez(mp, magic=np.array("repro-metric-v1"),
             topology_key=np.array(topo.key), weights=metric.weights,
             via=metric.via)
    with pytest.raises(ArtifactFormatError, match="version mismatch"):
        load_topology(tp)
    with pytest.raises(ArtifactFormatError, match="version mismatch"):
        load_metric(mp, topology=topo)


def test_corrupt_triangle_index_is_refused(tmp_path, small_road):
    """The kernels index raw memory through the triangle arrays, so an
    out-of-range index in a loaded topology must never reach them."""
    topo = build_topology(small_road)
    path = tmp_path / "t.npz"
    save_topology(topo, path)
    arrays = dict(np.load(path))
    arrays["tri_in"][0] = topo.num_arcs + 5
    np.savez(path, **arrays)
    with pytest.raises(ArtifactFormatError, match="tri_in out of range"):
        load_topology(path)


@pytest.mark.parametrize("bad", [INF, -1])
def test_tampered_metric_weights_are_refused(tmp_path, small_road, bad):
    """A loaded metric's unreachable count and keep marks come from the
    file, so ``instantiate`` checks the kept weights themselves."""
    topo = build_topology(small_road)
    path = tmp_path / "m.npz"
    save_metric(customize(topo, small_road.arc_len), path)
    arrays = dict(np.load(path))
    arrays["weights"][np.flatnonzero(arrays["keep"])[0]] = bad
    arrays["unreachable_base_arcs"] = np.array(0)
    np.savez(path, **arrays)
    metric = load_metric(path, topology=topo)
    with pytest.raises(ValueError, match="INF or negative"):
        topo.instantiate(metric)
