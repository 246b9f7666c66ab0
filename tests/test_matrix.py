"""Matrix serving tests: RPHAST engine, selection cache, pool, server.

The acceptance bar of the matrix op: every backend and every execution
path (serial pool, worker pool at any width, with and without cache
hits, across an injected worker crash) returns a matrix bit-identical
to full-PHAST slices — and nothing leaks shared memory.
"""

from __future__ import annotations

import asyncio
import glob
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import contract_graph
from repro.core import (
    LevelSweep,
    PhastEngine,
    PhastPool,
    RPhastEngine,
    SelectionCache,
    many_to_many_buckets,
)
from repro.graph import StaticGraph
from repro.server import (
    PhastService,
    ServerClient,
    ServerConfig,
    ServerError,
    serve_in_thread,
)
from repro.sssp import dijkstra


def _shm_names() -> set:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/repro-*"))


TARGETS = [3, 17, 44, 101, 250, 399]
SOURCES = [0, 5, 42, 77, 123, 200, 388]


@pytest.fixture(scope="module")
def reference(road, road_ch):
    """Full-PHAST slices: the bit-exactness oracle for every backend."""
    engine = PhastEngine(road_ch)
    return np.stack([engine.tree(s).dist[TARGETS] for s in SOURCES])


# ---------------------------------------------------------------------------
# Engine: vectorized selection, lane sweeps, buffers, search cache


def test_matrix_parity_three_ways(road, road_ch, reference):
    """RPHAST == buckets == full-PHAST slices on the road fixture."""
    eng = RPhastEngine(road_ch, TARGETS)
    assert np.array_equal(eng.many_to_many(SOURCES), reference)
    assert np.array_equal(
        many_to_many_buckets(road_ch, SOURCES, TARGETS), reference
    )


def test_sweep_lanes_equals_per_source(road_ch, reference):
    eng = RPhastEngine(road_ch, TARGETS)
    singles = np.stack([eng.distances(s) for s in SOURCES])
    assert np.array_equal(singles, reference)
    assert np.array_equal(eng.sweep_lanes(SOURCES), reference)


@pytest.mark.parametrize("lanes", [1, 2, 3, 16])
def test_many_to_many_lane_width_invariance(road_ch, reference, lanes):
    eng = RPhastEngine(road_ch, TARGETS)
    assert np.array_equal(eng.many_to_many(SOURCES, lanes=lanes), reference)


def test_many_to_many_rejects_bad_lanes(road_ch):
    eng = RPhastEngine(road_ch, TARGETS)
    with pytest.raises(ValueError):
        eng.many_to_many(SOURCES, lanes=0)


def test_repeated_queries_reuse_buffers(road_ch, reference):
    """Back-to-back sweeps (the serving pattern) stay bit-identical."""
    eng = RPhastEngine(road_ch, TARGETS)
    for _ in range(3):
        assert np.array_equal(eng.many_to_many(SOURCES, lanes=4), reference)
        assert np.array_equal(eng.distances(SOURCES[0]), reference[0])


def test_search_cache_counters(road_ch, reference):
    eng = RPhastEngine(road_ch, TARGETS, search_cache=len(SOURCES))
    eng.many_to_many(SOURCES)
    info = eng.cache_info()
    assert info["misses"] == len(SOURCES)
    assert info["hits"] == 0
    assert info["entries"] == len(SOURCES)
    assert np.array_equal(eng.many_to_many(SOURCES), reference)
    assert eng.cache_info()["hits"] == len(SOURCES)

    bounded = RPhastEngine(road_ch, TARGETS, search_cache=2)
    bounded.many_to_many(SOURCES)
    assert bounded.cache_info()["entries"] == 2  # LRU capacity bound


def test_unreachable_targets_stay_inf():
    """Two components: the INF sentinel must survive the relaxations."""
    from repro.graph import INF

    g = StaticGraph(4, [0, 1], [1, 0], [5, 5])  # {0,1} and isolated {2,3}
    ch = contract_graph(g)
    eng = RPhastEngine(ch, [1, 3])
    row = eng.distances(0)
    assert row[0] == 5  # target 1
    assert row[1] == INF  # target 3, unreachable
    assert np.array_equal(
        eng.sweep_lanes([0, 2]),
        np.array([[5, INF], [INF, INF]], dtype=np.int64),
    )


def test_selection_arrays_round_trip(road_ch, reference):
    eng = RPhastEngine(road_ch, TARGETS, search_cache=2)
    rebuilt = RPhastEngine.from_arrays(
        road_ch, eng.selection_arrays(), search_cache=2
    )
    assert rebuilt.size == eng.size
    assert np.array_equal(rebuilt.targets, eng.targets)
    assert np.array_equal(rebuilt.many_to_many(SOURCES), reference)


def test_freeze_keeps_engine_usable(road_ch, reference):
    eng = RPhastEngine(road_ch, TARGETS).freeze()
    assert not eng.vertex_at.flags.writeable
    assert np.array_equal(eng.many_to_many(SOURCES), reference)


@st.composite
def graphs(draw, max_n=12, max_m=30):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    tails = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    heads = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    lens = draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    return StaticGraph(n, tails, heads, lens)


@given(
    g=graphs(),
    sources=st.lists(st.integers(0, 11), min_size=1, max_size=4),
    targets=st.lists(st.integers(0, 11), min_size=1, max_size=4),
)
@settings(max_examples=30, deadline=None)
def test_matrix_parity_on_random_graphs(scalar_threshold, g, sources, targets):
    """RPHAST lanes == buckets == Dijkstra on adversarial random graphs."""
    S = [s % g.n for s in sources]
    T = np.unique([t % g.n for t in targets])
    ch = contract_graph(g)
    ref = np.stack([dijkstra(g, s, with_parents=False).dist[T] for s in S])
    # Default scalar-prefix cutover, then every level vectorized.
    for threshold in (LevelSweep.SCALAR_ARC_THRESHOLD, 0):
        with scalar_threshold(threshold):
            eng = RPhastEngine(ch, T, search_cache=4)
        assert np.array_equal(eng.many_to_many(S, lanes=2), ref)
    assert np.array_equal(many_to_many_buckets(ch, S, T), ref)


# ---------------------------------------------------------------------------
# SelectionCache


def test_selection_cache_counters_and_lru():
    cache = SelectionCache(2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # bumps a over b
    cache.put("c", 3)  # evicts b (LRU)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    snap = cache.snapshot()
    assert snap["hits"] == 2 and snap["misses"] == 2
    assert snap["evictions"] == 1 and snap["entries"] == 2


def test_selection_cache_on_evict_and_clear():
    """Eviction drops the LRU entry; ``clear`` drops and counts the rest."""
    cache = SelectionCache(1)
    cache.put("a", "A")
    cache.put("b", "B")
    assert "a" not in cache and cache.get("b") == "B"
    cache.clear()
    assert len(cache) == 0 and cache.get("b") is None
    assert cache.snapshot()["evictions"] == 2


def test_selection_cache_key_is_order_insensitive():
    assert SelectionCache.key_of([3, 1, 2]) == SelectionCache.key_of([1, 2, 3])
    assert SelectionCache.key_of([1, 1, 2]) == SelectionCache.key_of([2, 1])
    assert SelectionCache.key_of([1]) != SelectionCache.key_of([2])


def test_selection_cache_engine_helper(road_ch, reference):
    cache = SelectionCache(4)
    eng = cache.engine(road_ch, TARGETS)
    assert cache.engine(road_ch, list(reversed(TARGETS))) is eng
    assert cache.snapshot()["hits"] == 1
    assert np.array_equal(eng.many_to_many(SOURCES), reference)


def test_selection_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SelectionCache(0)


# ---------------------------------------------------------------------------
# Pool execution


@pytest.mark.parametrize(
    "pool_kwargs",
    [
        {"num_workers": 1},  # serial, no shared memory
        {"num_workers": 2, "force_pool": True},
        {"num_workers": 3, "force_pool": True, "sources_per_sweep": 4},
    ],
)
def test_pool_matrix_bit_identical(road_ch, reference, pool_kwargs):
    eng = RPhastEngine(road_ch, TARGETS)
    with PhastPool(road_ch, **pool_kwargs) as pool:
        pub = pool.publish_arrays(eng.selection_arrays())
        assert np.array_equal(
            pool.matrix(SOURCES, selection=pub), reference
        )
        # Second call rides the worker-side engine cache.
        assert np.array_equal(
            pool.matrix(SOURCES, selection=pub), reference
        )
        assert np.array_equal(
            pool.matrix([], selection=pub),
            np.empty((0, 0), dtype=np.int64),
        )


def test_pool_matrix_selection_retirement(road_ch, reference):
    before = _shm_names()
    eng = RPhastEngine(road_ch, TARGETS)
    with PhastPool(road_ch, num_workers=2, force_pool=True) as pool:
        name, specs = pool.publish_arrays(eng.selection_arrays())
        assert os.path.exists(f"/dev/shm/{name}")
        assert np.array_equal(
            pool.matrix(SOURCES, selection=(name, specs)), reference
        )
        pool.retire_publication(name)
        assert not os.path.exists(f"/dev/shm/{name}")
    assert _shm_names() <= before


def test_pool_matrix_serial_retirement(road_ch, reference):
    """Retiring a selection drops the restricted engine memoized over it."""
    def memo_names(pool):
        return {name for key in pool._ctx._memo for name in key[1:]}

    with PhastPool(road_ch, num_workers=1) as pool:
        pub = pool.publish_arrays(RPhastEngine(road_ch, TARGETS).selection_arrays())
        assert np.array_equal(pool.matrix(SOURCES, selection=pub), reference)
        assert pub[0] in memo_names(pool)
        pool.retire_publication(pub[0])
        assert pub[0] not in pool._segments
        assert pub[0] not in memo_names(pool)


@pytest.mark.parametrize(
    "pool_kwargs",
    [{"num_workers": 1}, {"num_workers": 2, "force_pool": True}],
)
def test_pool_matrix_refuses_dead_selection_handles(road_ch, reference,
                                                    pool_kwargs):
    """A retired or foreign handle is refused in the parent, the same
    way on both paths, instead of failing or answering from a cache."""
    eng = RPhastEngine(road_ch, TARGETS)
    with PhastPool(road_ch, **pool_kwargs) as pool, \
            PhastPool(road_ch, num_workers=1) as other:
        pub = pool.publish_arrays(eng.selection_arrays())
        assert np.array_equal(pool.matrix(SOURCES, selection=pub), reference)
        pool.retire_publication(pub[0])
        with pytest.raises(ValueError, match=f"{pub[0]!r} is not a live"):
            pool.matrix(SOURCES, selection=pub)
        foreign = other.publish_arrays(eng.selection_arrays())
        with pytest.raises(ValueError, match=f"{foreign[0]!r} is not a live"):
            pool.matrix(SOURCES, selection=foreign)
        # The pool itself is unharmed: a fresh publication answers.
        fresh = pool.publish_arrays(eng.selection_arrays())
        assert np.array_equal(pool.matrix(SOURCES, selection=fresh), reference)


def test_pool_matrix_bitidentical_across_injected_crash(road_ch, reference):
    """A worker dying mid-matrix is invisible: same bits, no shm leak."""
    eng = RPhastEngine(road_ch, TARGETS)
    S = list(range(0, 120, 2))
    expected = eng.many_to_many(S)
    before = _shm_names()
    with PhastPool(
        road_ch,
        num_workers=2,
        force_pool=True,
        chunk_size=8,
        heartbeat_interval=0.05,
        fault_plan="crash:chunk=1,times=1",
    ) as pool:
        pub = pool.publish_arrays(eng.selection_arrays())
        assert np.array_equal(pool.matrix(S, selection=pub), expected)
        assert pool.health()["deaths"] >= 1
        # And again on the recovered pool.
        assert np.array_equal(pool.matrix(S, selection=pub), expected)
    assert _shm_names() <= before


# ---------------------------------------------------------------------------
# Server op


@pytest.fixture(scope="module")
def matrix_server(road, road_ch):
    service = PhastService(
        road_ch,
        graph=road,
        config=ServerConfig(
            batch_max=4,
            max_wait_ms=10.0,
            max_pending=8,
            selection_cache=2,
        ),
    )
    with serve_in_thread(service) as handle:
        yield handle


@pytest.fixture()
def matrix_client(matrix_server):
    with ServerClient(matrix_server.host, matrix_server.port) as c:
        yield c


def test_server_matrix_parity_and_cache(matrix_server, matrix_client, reference):
    assert np.array_equal(matrix_client.matrix(SOURCES, TARGETS), reference)
    # Same target set again: selection must come from the cache.
    resp = matrix_client.call(
        "matrix", sources=list(SOURCES), targets=list(TARGETS)
    )
    assert resp["selection_cached"] is True
    assert resp["rows"] == len(SOURCES) and resp["cols"] == len(TARGETS)
    snap = matrix_client.metrics()["selection_cache"]
    assert snap["hits"] >= 1
    assert matrix_client.metrics()["matrix"]["requests"] >= 2


def test_server_matrix_request_order_columns(matrix_client, road_ch):
    """Duplicated, unsorted targets map back to request order."""
    T = [44, 3, 44, 101]
    S = SOURCES[:3]
    eng = RPhastEngine(road_ch, T)
    cols = np.searchsorted(eng.targets, np.asarray(T))
    expected = eng.many_to_many(S)[:, cols]
    assert np.array_equal(matrix_client.matrix(S, T), expected)


def test_server_matrix_buckets_backend(matrix_client, road_ch, reference):
    """Served rphast == in-process buckets == full PHAST."""
    mat = matrix_client.matrix(SOURCES, TARGETS)
    buckets = many_to_many_buckets(road_ch, SOURCES, TARGETS)
    assert np.array_equal(mat, buckets)
    assert np.array_equal(buckets, reference)


def test_server_matrix_bad_requests(matrix_client):
    for params in (
        {"targets": list(TARGETS)},  # missing sources
        {"sources": [], "targets": list(TARGETS)},
        {"sources": list(SOURCES), "targets": [10**9]},
    ):
        with pytest.raises(ServerError) as exc_info:
            matrix_client.call("matrix", **params)
        assert exc_info.value.code == 400


def test_server_matrix_deadline(matrix_client):
    with pytest.raises(ServerError) as exc_info:
        matrix_client.matrix(SOURCES, TARGETS, timeout_ms=-1)
    assert exc_info.value.code == 504


def test_server_matrix_degraded_admission(matrix_server, matrix_client,
                                          road_ch):
    """Matrix requests shed with 429 like any work op once
    ``max_pending`` requests are in flight."""
    service = matrix_server.service

    def on_loop(fn):
        async def call():
            return fn()
        return asyncio.run_coroutine_threadsafe(
            call(), matrix_server.loop).result(10)

    def hold() -> int:
        held = 0
        while service._refusal() is None:
            service._owe()
            held += 1
        return held

    # Occupy every slot, on the loop thread that owns them, so the next
    # matrix request is deterministically shed.
    held = on_loop(hold)
    assert held == service.config.max_pending
    try:
        with pytest.raises(ServerError) as exc_info:
            matrix_client.matrix(SOURCES, TARGETS)
        assert exc_info.value.code == 429
    finally:
        on_loop(lambda: [service._settle() for _ in range(held)])
    assert np.array_equal(
        matrix_client.matrix(SOURCES[:2], TARGETS),
        many_to_many_buckets(road_ch, SOURCES[:2], TARGETS),
    )


def test_server_selection_cache_evicts_publications(road, road_ch):
    """Distinct target sets beyond capacity are evicted, and the
    in-process selections create no shared memory."""
    before = _shm_names()
    service = PhastService(
        road_ch, config=ServerConfig(batch_max=4, selection_cache=2),
    )
    with serve_in_thread(service) as handle:
        with ServerClient(handle.host, handle.port) as client:
            full = PhastEngine(road_ch)
            for shift in range(4):  # 4 distinct target sets, capacity 2
                T = [t - shift for t in TARGETS]
                ref = np.stack(
                    [full.tree(s).dist[T] for s in SOURCES[:3]]
                )
                assert np.array_equal(client.matrix(SOURCES[:3], T), ref)
            snap = client.metrics()["selection_cache"]
            assert snap["evictions"] >= 2
            assert snap["entries"] <= 2
    assert _shm_names() <= before
