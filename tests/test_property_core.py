"""Property-based tests on the core pipeline.

The headline invariant — PHAST computes exactly Dijkstra's labels for
*every* graph and source — is checked on hypothesis-generated random
directed graphs, including degenerate shapes (self-loops, parallel
arcs, zero lengths, disconnected pieces) no road network would exhibit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import ch_query, contract_graph
from repro.core import LevelSweep, PhastEngine, phast_scalar
from repro.graph import StaticGraph
from repro.sssp import dijkstra


@st.composite
def graphs(draw, max_n=14, max_m=40):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    tails = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    heads = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    lens = draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    return StaticGraph(n, tails, heads, lens)


@given(g=graphs(), source=st.integers(0, 13))
@settings(max_examples=60, deadline=None)
def test_phast_equals_dijkstra_on_random_graphs(scalar_threshold, g, source):
    source %= g.n
    ch = contract_graph(g)
    ch.validate()
    ref = dijkstra(g, source, with_parents=False).dist
    # Default cutover, then every level vectorized: these graphs never
    # reach the default's arc count, so 0 is what tests that path.
    for threshold in (LevelSweep.SCALAR_ARC_THRESHOLD, 0):
        with scalar_threshold(threshold):
            engine = PhastEngine(ch)
        assert np.array_equal(engine.tree(source).dist, ref)
    assert np.array_equal(phast_scalar(ch, source).dist, ref)


@given(g=graphs(), s=st.integers(0, 13), t=st.integers(0, 13))
@settings(max_examples=60, deadline=None)
def test_ch_query_equals_dijkstra_on_random_graphs(g, s, t):
    s %= g.n
    t %= g.n
    ch = contract_graph(g)
    ref = dijkstra(g, s, with_parents=False).dist[t]
    assert ch_query(ch, s, t).distance == ref


@given(g=graphs(max_n=10, max_m=25), sources=st.lists(st.integers(0, 9), min_size=2, max_size=4))
@settings(max_examples=30, deadline=None)
def test_multi_tree_equals_singles(g, sources):
    sources = [s % g.n for s in sources]
    ch = contract_graph(g)
    engine = PhastEngine(ch)
    multi = engine.trees(sources)
    for i, s in enumerate(sources):
        assert np.array_equal(multi[i], dijkstra(g, s, with_parents=False).dist)


@given(g=graphs(max_n=12, max_m=30), source=st.integers(0, 11))
@settings(max_examples=40, deadline=None)
def test_gplus_parents_form_valid_tree(g, source):
    """Parent chains in G+ terminate at the source with consistent labels."""
    source %= g.n
    ch = contract_graph(g)
    engine = PhastEngine(ch)
    t = engine.tree(source, with_parents=True)
    from repro.graph import INF

    for v in range(g.n):
        if t.dist[v] >= INF or v == source:
            continue
        seen = set()
        u = v
        while u != source:
            assert u not in seen, "parent cycle"
            seen.add(u)
            u = int(t.parent[u])
            assert u >= 0, "broken chain"


@given(
    rows=st.integers(2, 5),
    cols=st.integers(2, 5),
    seed=st.integers(0, 10),
    metric=st.sampled_from(["time", "distance"]),
)
@settings(max_examples=20, deadline=None)
def test_road_network_pipeline_property(rows, cols, seed, metric):
    """Full pipeline on tiny generated road networks of any shape."""
    from repro.graph import RoadNetworkParams, road_network

    g = road_network(
        RoadNetworkParams(rows=rows, cols=cols, metric=metric, seed=seed)
    )
    ch = contract_graph(g)
    engine = PhastEngine(ch)
    source = seed % g.n
    assert np.array_equal(
        engine.tree(source).dist,
        dijkstra(g, source, with_parents=False).dist,
    )
