"""Upward searches that walk the elimination tree.

On a customized hierarchy every vertex ``G↑`` reaches from ``s`` is an
ancestor of ``s`` in the topology's elimination tree, so the compiled
batch of trees searches by walking ``s, parent[s], …`` instead of
running a heap.  Its rows must equal the heap's (the same hierarchy
with the parent withheld) and Dijkstra's, bit for bit, on the full
structure and on RPHAST's restricted one, at every lane count, also
where penalties push upward sums to ``INF``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import build_topology, customize
from repro.core import PhastEngine, PhastPool, RPhastEngine
from repro.core.pool import (
    TreeReducer,
    _engine,
    _hierarchy_arrays,
    _PublishedHierarchy,
)
from repro.graph import StaticGraph
from repro.graph.csr import INF
from repro.server import PhastService, ServerClient, ServerConfig, serve_in_thread
from repro.sssp import dijkstra
from repro.utils import native

LANES = (1, 2, 5, 16)
BACKENDS = [
    pytest.param("kernel", marks=pytest.mark.skipif(
        not native.native_available(), reason="no compiled kernels here")),
    "fallback",
]
#: Finite arc lengths large enough that two of them sum past ``INF``.
PENALTIES = (int(INF) // 2, int(INF) // 2 + 1, int(INF) - 1)


def _lengths(size: int):
    small = st.integers(0, 3) | st.integers(0, 30)
    return st.lists(small | st.sampled_from(PENALTIES), min_size=size,
                    max_size=size)


@st.composite
def multigraphs(draw, max_n=14, max_m=40):
    """Zero lengths, parallel arcs, self-loops, one-way arcs, vertices
    no source reaches, and finite penalties near ``INF``."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return StaticGraph(n, draw(ends), draw(ends), draw(_lengths(m)))


def _rows(ch, sources, targets) -> dict:
    """``trees`` rows at every lane count, and RPHAST's over ``targets``."""
    engine, rphast = PhastEngine(ch), RPhastEngine(ch, targets)
    rows = {k: engine.trees(sources[:k]) for k in LANES}
    rows.update({("rphast", k): rphast.many_to_many(sources, lanes=k)
                 for k in LANES})
    return rows


def _engine_walks(engine) -> bool:
    kernel = engine.kernel._native
    return kernel is not None and kernel.walks


def _walks(ch) -> bool:
    return _engine_walks(PhastEngine(ch))


def _use(backend, monkeypatch) -> None:
    if backend == "fallback":
        monkeypatch.setattr(native, "_lib", False)


@pytest.mark.parametrize("backend", BACKENDS)
@given(g=multigraphs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_walk_equals_heap_and_dijkstra(backend, g, data):
    weights = np.asarray(data.draw(_lengths(g.m)), dtype=np.int64)
    picks = data.draw(st.lists(st.integers(0, 13), min_size=16, max_size=16))
    sources = np.array([p % g.n for p in picks], dtype=np.int64)
    targets = np.unique(data.draw(st.lists(
        st.integers(0, g.n - 1), min_size=1, max_size=4)))
    graph = StaticGraph.from_csr(g.first, g.arc_head, weights)
    topo = build_topology(graph)
    assert topo.elimination_parent is not None
    ch = topo.instantiate(customize(topo, weights))
    ch.validate()
    heap = dataclasses.replace(ch, elimination_parent=None)
    ref = np.stack([dijkstra(graph, int(s), with_parents=False).dist
                    for s in sources])
    with pytest.MonkeyPatch.context() as mp:
        _use(backend, mp)
        walked = _rows(ch, sources, targets)
        heaped = _rows(heap, sources, targets)
    for key, rows in walked.items():
        k = key if isinstance(key, int) else key[1]
        want = ref[:k] if isinstance(key, int) else ref[:, targets]
        assert np.array_equal(rows, heaped[key]), key
        assert np.array_equal(rows, want), key


@pytest.mark.skipif(not native.native_available(),
                    reason="no compiled kernels here")
def test_candidates_past_inf_reach_nothing():
    """``0 -> 1 -> 2`` upward with penalties that sum past ``INF``: the
    walk reaches 1, not 2, exactly as the heap does, while the
    downward graph stays empty so the sweep runs compiled."""
    half = int(INF) // 2 + 1
    graph = StaticGraph(3, [0, 1], [1, 2], [half, half])
    topo = build_topology(graph, rank=np.arange(3))
    ch = topo.instantiate(customize(topo, graph.arc_len))
    assert ch.downward_rev.m == 0 and _walks(ch)
    assert ch.elimination_parent.tolist() == [1, 2, -1]
    heap = dataclasses.replace(ch, elimination_parent=None)
    want = [[0, half, INF], [INF, 0, half], [INF, INF, 0]]
    for k in (1, 3):
        sources = [0, 1, 2][:k]
        assert PhastEngine(ch).trees(sources).tolist() == want[:k]
        assert PhastEngine(heap).trees(sources).tolist() == want[:k]


@pytest.fixture(scope="module")
def topo(road):
    return build_topology(road)


def test_parent_is_derived_once_per_topology(road, topo):
    rng = np.random.default_rng(1)
    chs = [topo.instantiate(customize(topo, w)) for w in (
        road.arc_len, rng.integers(0, 1_000, size=road.m))]
    assert chs[0].elimination_parent is chs[1].elimination_parent
    assert chs[0].elimination_parent is topo.elimination_parent
    assert not topo.elimination_parent.flags.writeable


def test_closure_missing_a_triangle_arc_gets_no_parent(road, topo):
    """Remove one arc ``(parent[v], w)`` that a vertex ``v`` with the
    up-neighbours ``parent[v]`` and ``w`` needs: the check refuses the
    closure, and its hierarchy searches with the heap."""
    parent = topo.elimination_parent
    tail, head = topo.arc_tail[topo.up_sel], topo.arc_head[topo.up_sel]
    other = np.flatnonzero(head != parent[tail])
    v, w = tail[other[0]], head[other[0]]
    gone = np.flatnonzero((tail == parent[v]) & (head == w))
    assert gone.size == 1
    broken = dataclasses.replace(topo, up_sel=np.delete(topo.up_sel, gone))
    assert broken.elimination_parent is None
    ch = broken.instantiate(customize(broken, road.arc_len))
    assert ch.elimination_parent is None
    assert not _walks(ch)


def test_witness_hierarchy_gets_no_parent(road_ch):
    assert road_ch.elimination_parent is None
    assert not _walks(road_ch)


def test_bad_parent_is_refused(road, topo):
    if not native.native_available():
        pytest.skip("no compiled kernels here")
    ch = topo.instantiate(customize(topo, road.arc_len))
    for bad in (np.full(road.n, road.n, dtype=np.int64),
                np.zeros(road.n - 1, dtype=np.int64),
                np.zeros(road.n, dtype=np.int32)):
        with pytest.raises(ValueError, match="elimination parent"):
            PhastEngine(dataclasses.replace(ch, elimination_parent=bad))


def test_service_walks_before_and_after_a_swap(road, topo):
    service = PhastService(
        topology=topo, metric=customize(topo, road.arc_len),
        config=ServerConfig(batch_max=16, max_wait_ms=2.0, max_pending=64),
    )
    walks = native.native_available()
    assert _engine_walks(service.engine) == walks
    new_w = np.random.default_rng(5).integers(1, 5_000, size=road.m)
    graph = StaticGraph.from_csr(road.first, road.arc_head, new_w)
    sources = [0, 17, 42, 99, road.n - 1]
    with serve_in_thread(service) as handle:
        with ServerClient(handle.host, handle.port) as client:
            assert client.swap_metric(weights=new_w,
                                      timeout=120)["metric_generation"] == 1
            for s in sources:
                assert np.array_equal(
                    client.tree(s),
                    dijkstra(graph, s, with_parents=False).dist)
    assert _engine_walks(service.engine) == walks


class _Walks(TreeReducer):
    """Whether each worker's engine of the generation ``hier`` walks."""

    def __init__(self, hier) -> None:
        self.hier = hier

    def make_state(self, ctx):
        return None

    def fold(self, ctx, state, index, source, dist):
        return state

    def finish(self, ctx, state):
        return _engine_walks(_engine(ctx, self.hier))

    def merge(self, states):
        return states


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_publishes_the_parent_and_walks_after_a_swap(road, topo,
                                                          workers):
    old = topo.instantiate(customize(topo, road.arc_len))
    new_w = np.random.default_rng(6).integers(1, 5_000, size=road.m)
    new = topo.instantiate(customize(topo, new_w))
    arrays = _hierarchy_arrays(new)
    assert np.array_equal(arrays["up:parent"], topo.elimination_parent)
    assert _PublishedHierarchy(arrays).elimination_parent is arrays["up:parent"]
    sources = list(range(0, road.n, 23))
    with PhastPool(old, num_workers=workers, force_pool=workers > 1,
                   sources_per_sweep=16) as pool:
        assert pool.swap_metric(new) == 1
        rows = np.array(pool.trees(sources))
        walks = pool.reduce(sources, _Walks(pool._hier))
    assert np.array_equal(rows, PhastEngine(new).trees(sources))
    assert walks and set(walks) == {native.native_available()}
