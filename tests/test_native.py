"""The compiled query kernels against their fallbacks, and the per-host
library cache.

The upward search and the batch of trees (searches, seeds, sweep and
scatter in one call) each have a C kernel (:mod:`repro.utils.native`)
and a fallback (``heapq`` search, per-level NumPy sweep, NumPy
scatter).  Both must return the same arrays, bit for bit, on every
kind of sweep structure a server runs: the witness CH, a customized
and pruned hierarchy, and RPHAST's restricted selection.
"""

from __future__ import annotations

import gc
import os
import shutil
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import build_topology, contract_graph, customize, upward_search
from repro.core import LevelSweep, PhastEngine, RPhastEngine, SweepStructure
from repro.graph import StaticGraph, random_graph
from repro.graph.csr import INF
from repro.sssp import dijkstra
from repro.utils import native

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

needs_native = pytest.mark.skipif(
    not native.native_available(), reason="no compiled kernels here"
)


@pytest.fixture(scope="module")
def custom_ch(road):
    topo = build_topology(road)
    return topo.instantiate(
        customize(topo, np.asarray(road.arc_len, dtype=np.int64)))


def _structures(road_ch, custom_ch):
    rng = np.random.default_rng(11)
    targets = rng.choice(road_ch.n, size=40, replace=False)
    return {
        "witness": (road_ch, SweepStructure(road_ch)),
        "customized": (custom_ch, SweepStructure(custom_ch)),
        "restricted": (road_ch, RPhastEngine(road_ch, targets).sweep),
    }


def _kernel_outputs(ch, sweep, sources) -> dict:
    """Every array :class:`LevelSweep` hands out for these sources, and
    a full structure's :meth:`PhastEngine.trees` rows (``out=``)."""
    kernel = LevelSweep(ch, sweep)
    out = {}
    for s in sources:
        pos, val = kernel.search(s)
        out[f"search_pos[{s}]"], out[f"search_val[{s}]"] = pos, val
        out[f"run[{s}]"] = kernel.run((pos, val)).copy()
    out["native"] = kernel._native is not None
    for k in (1, 2, 5, 16):
        out[f"run_lanes[{k}]"] = kernel.run_lanes(sources[:k]).copy()
    if sweep.n == ch.n:
        engine = PhastEngine(ch, sweep=sweep)
        for k in (1, 2, 5, 16):
            rows = np.full((k, ch.n), -7, dtype=np.int64)
            assert engine.trees(sources[:k], out=rows) is rows
            out[f"trees[{k}]"] = rows
    return out


@needs_native
@pytest.mark.parametrize("which", ["witness", "customized", "restricted"])
def test_native_sweep_and_search_equal_fallback(road_ch, custom_ch, which,
                                                monkeypatch):
    ch, sweep = _structures(road_ch, custom_ch)[which]
    sources = np.random.default_rng(5).choice(ch.n, size=16, replace=False)
    fast = _kernel_outputs(ch, sweep, sources)
    monkeypatch.setattr(native, "_lib", False)
    slow = _kernel_outputs(ch, sweep, sources)
    assert fast.pop("native") is True
    assert slow.pop("native") is False
    assert fast.keys() == slow.keys()
    for key in fast:
        assert fast[key].dtype == slow[key].dtype, key
        assert np.array_equal(fast[key], slow[key]), key


BACKENDS = [pytest.param("kernel", marks=needs_native), "fallback"]


def _use(backend, monkeypatch) -> None:
    if backend == "fallback":
        monkeypatch.setattr(native, "_lib", False)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("which", ["witness", "customized", "restricted"])
def test_sweeps_leave_every_seed_at_inf(road_ch, custom_ch, which, backend,
                                        monkeypatch):
    """Implicit initialization: a sweep puts back ∞ wherever it wrote
    a search mark, whatever the lane count, before and after the seed
    buffer grows."""
    _use(backend, monkeypatch)
    ch, sweep = _structures(road_ch, custom_ch)[which]
    kernel = LevelSweep(ch, sweep)
    assert (kernel._native is not None) == (backend == "kernel")
    sources = np.random.default_rng(8).choice(ch.n, size=16, replace=False)
    for s in sources[:3]:
        kernel.run(kernel.search(s))
        assert np.all(kernel._seeds == INF), s
    for k in (1, 2, 5, 16, 1):
        kernel.run_lanes(sources[:k])
        assert np.all(kernel._seeds == INF), k
    assert kernel._seeds.size == 16 * kernel.size


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_sweep_that_raises_restores_its_seeds(road, road_ch, backend,
                                                monkeypatch):
    """A ``relax`` hook failing mid-sweep leaves no seed behind, so the
    next sweep still equals Dijkstra."""
    _use(backend, monkeypatch)
    engine = PhastEngine(road_ch)
    kernel = engine.kernel
    relaxed = []

    def relax(dist, plan, values, cand):
        if len(relaxed) == 3:
            raise RuntimeError("relax failed")
        relaxed.append(plan)
        kernel.relax(dist, plan, values, cand)

    with pytest.raises(RuntimeError, match="relax failed"):
        kernel.run(kernel.search(42), relax=relax)
    assert len(relaxed) == 3
    assert np.all(kernel._seeds == INF)
    for s in (42, 7):
        ref = dijkstra(road, s, with_parents=False).dist
        assert np.array_equal(engine.tree(s).dist, ref)
        assert np.array_equal(engine.trees([s, 7])[0], ref)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("search_cache", [0, 8])
def test_one_source_in_two_lanes(road_ch, backend, search_cache,
                                 monkeypatch):
    """``trees([s, s, t])`` equals three separate trees: the same marks
    seed two lanes without touching each other."""
    _use(backend, monkeypatch)
    engine = PhastEngine(road_ch, search_cache=search_cache)
    s, t = 42, 7
    separate = np.stack([engine.tree(v).dist for v in (s, s, t)])
    assert np.array_equal(engine.trees([s, s, t]), separate)
    assert np.array_equal(engine.trees([t, s, s]), separate[[2, 0, 1]])


def _dijkstra_rows(graph, sources) -> np.ndarray:
    return np.stack([dijkstra(graph, int(s), with_parents=False).dist
                     for s in sources])


@pytest.mark.parametrize("backend", BACKENDS)
def test_batches_of_every_width_equal_dijkstra(road, road_ch, backend,
                                               monkeypatch):
    """Each lane's search takes its own stamp generation, also when
    wide and narrow batches alternate on one engine: a generation
    reused across calls leaves stale stamps that read as reached.
    k = 17 is wider than every constant lane count and than a served
    batch."""
    _use(backend, monkeypatch)
    engine = PhastEngine(road_ch)
    rng = np.random.default_rng(29)
    for k in (16, 1, 5, 1, 17, 2):
        sources = rng.choice(road.n, size=k, replace=False)
        assert np.array_equal(engine.trees(sources),
                              _dijkstra_rows(road, sources)), k
        assert np.all(engine.kernel._seeds == INF), k


@pytest.mark.parametrize("backend", BACKENDS)
def test_cached_batches_mix_hits_misses_and_repeats(road, road_ch, backend,
                                                    monkeypatch):
    """With ``search_cache=8`` and sources from a small set, batches mix
    hits, misses, repeats and evictions: rows equal Dijkstra, every
    seed is ∞ after, and the cache counts what the fallback counts."""
    pool = [3, 41, 77, 120, 200, 256, 311, 350, 399, 5, 64]
    rng = np.random.default_rng(31)
    batches = [rng.choice(pool, size=int(rng.integers(1, 9))).tolist()
               for _ in range(40)]
    ref = {s: _dijkstra_rows(road, [s])[0] for s in pool}
    counts = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("kernel", "fallback"):
            if name == "kernel" and backend == "fallback":
                continue
            _use(name, mp)
            engine = PhastEngine(road_ch, search_cache=8)
            for batch in batches:
                rows = engine.trees(batch)
                for s, row in zip(batch, rows):
                    assert np.array_equal(row, ref[s]), (name, batch)
                assert np.all(engine.kernel._seeds == INF), batch
            counts[name] = (engine.search_cache_hits,
                            engine.search_cache_misses,
                            list(engine.kernel._cache))
    hits, misses, _ = counts["fallback"]
    assert hits > 0 and misses > len(pool)  # evictions brought misses back
    if backend == "kernel":
        assert counts["kernel"] == counts["fallback"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("search_cache", [0, 8])
def test_bad_source_in_a_batch_writes_no_seed(road, road_ch, backend,
                                              search_cache, monkeypatch):
    """Every source is checked before any lane is searched or seeded."""
    _use(backend, monkeypatch)
    engine = PhastEngine(road_ch, search_cache=search_cache)
    engine.trees([7])  # a cache entry, for a seeded lane below
    for bad in ([42, road.n], [7, -1], [road.n + 5]):
        with pytest.raises(ValueError):
            engine.trees(bad)
        assert np.all(engine.kernel._seeds == INF), bad
    assert engine.search_cache_misses == (1 if search_cache else 0)
    assert engine.search_cache_hits == 0
    sources = [7, 42, 9]
    assert np.array_equal(engine.trees(sources), _dijkstra_rows(road, sources))


@needs_native
@pytest.mark.parametrize("which", ["road_ch", "custom_ch"])
def test_native_upward_search_equals_heapq(request, which, monkeypatch):
    """Same vertices in the same settling order, same labels, same
    parents."""
    ch = request.getfixturevalue(which)
    sources = range(0, ch.n, 7)
    fast = [upward_search(ch, s) for s in sources]
    monkeypatch.setattr(native, "_lib", False)
    for s, a in zip(sources, fast):
        b = upward_search(ch, s)
        for key in ("vertices", "dists", "parents"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), (s, key)


@needs_native
def test_upward_search_reuses_one_searcher_per_thread(monkeypatch):
    """``upward_search`` builds one searcher per thread and ``G↑``,
    reuses it, frees it with the graph, and still equals ``heapq``."""
    ch = contract_graph(random_graph(60, 200, max_len=20, seed=4,
                                     connected=True))
    built = []
    make = native.upward_searcher
    monkeypatch.setattr(native, "upward_searcher",
                        lambda graph: built.append(make(graph)) or built[-1])
    spaces = [upward_search(ch, s) for s in range(ch.n)]
    assert len(built) == 1
    assert native.thread_searcher(ch.upward) is built[0]

    def other_thread():
        spaces.append(upward_search(ch, 0))
        assert native.thread_searcher(ch.upward) is built[-1]

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join()
    assert len(built) == 2 and built[1] is not built[0]
    assert len(spaces) == ch.n + 1

    monkeypatch.setattr(native, "_lib", False)
    for s in [*range(ch.n), 0]:
        a, b = spaces.pop(0), upward_search(ch, s)
        for key in ("vertices", "dists", "parents"):
            assert np.array_equal(getattr(a, key), getattr(b, key)), (s, key)

    freed = weakref.ref(built[0])
    del built[:], ch
    gc.collect()
    assert freed() is None


def test_upward_search_threads_never_share_scratch(road_ch):
    """More threads than cores searching one ``G↑`` at once each get
    the answers of a lone search: no two share a searcher's scratch."""
    sources = list(range(0, road_ch.n, 3))
    want = {s: upward_search(road_ch, s).dists for s in sources}
    bad = []

    def search():
        for s in sources * 3:
            if not np.array_equal(upward_search(road_ch, s).dists, want[s]):
                bad.append(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=search) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert bad == []


def test_native_search_rejects_bad_source(road_ch):
    with pytest.raises(ValueError):
        upward_search(road_ch, road_ch.n)
    with pytest.raises(ValueError):
        PhastEngine(road_ch).tree(-1)


@st.composite
def multigraphs(draw, max_n=14, max_m=40):
    """Parallel arcs, self-loops, zero lengths and (often) vertices no
    source reaches."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    lens = draw(st.lists(st.integers(0, 3) | st.integers(0, 30),
                         min_size=m, max_size=m))
    return StaticGraph(n, draw(ends), draw(ends), lens)


@given(g=multigraphs(), picks=st.lists(st.integers(0, 13), min_size=1,
                                       max_size=5))
@settings(max_examples=40, deadline=None)
def test_kernels_and_fallback_equal_dijkstra(g, picks):
    sources = np.array([p % g.n for p in picks], dtype=np.int64)
    targets = np.unique((sources + 1) % g.n)
    ch = contract_graph(g)
    ref = np.stack([dijkstra(g, int(s), with_parents=False).dist
                    for s in sources])
    with pytest.MonkeyPatch.context() as mp:
        for lib in (native._load(), False):
            mp.setattr(native, "_lib", lib)
            engine = PhastEngine(ch)
            for s, row in zip(sources, ref):
                assert np.array_equal(engine.tree(int(s)).dist, row)
            assert np.array_equal(engine.trees(sources), ref)
            matrix = RPhastEngine(ch, targets).many_to_many(sources, lanes=2)
            assert np.array_equal(matrix, ref[:, targets])


@needs_native
@given(g=multigraphs(), picks=st.lists(st.integers(0, 13), min_size=17,
                                       max_size=17))
@settings(max_examples=30, deadline=None)
def test_every_lane_count_equals_dijkstra_on_both_hierarchies(g, picks):
    """k = 1 to 17 trees in one call, on the witness CH and on the
    customized one (whose searches walk the elimination tree): k of 5
    to 8 and 9 to 16 sweep 8 and 16 lanes, the padding lanes starting
    from ∞ and not written out, k = 17 sweeps 17; every row equals
    Dijkstra's and every seed is ∞ again after."""
    sources = np.array([p % g.n for p in picks], dtype=np.int64)
    ref = np.stack([dijkstra(g, int(s), with_parents=False).dist
                    for s in sources])
    topo = build_topology(g)
    for ch in (contract_graph(g), topo.instantiate(customize(topo,
                                                             g.arc_len))):
        engine = PhastEngine(ch)
        for k in range(1, 18):
            out = np.full((k, g.n), -1, dtype=np.int64)
            engine.trees(sources[:k], out=out)
            assert np.array_equal(out, ref[:k]), k
            assert np.all(engine.kernel._seeds == INF), k


# ---------------------------------------------------------------------------
# The per-host library cache


def _probe(tmpdir, cc: str | None = None) -> bool:
    """``native_available()`` in a fresh process whose temp dir is
    ``tmpdir``."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_NATIVE"}
    env.update(TMPDIR=str(tmpdir), PYTHONPATH=SRC)
    if cc is not None:
        env["CC"] = cc
    proc = subprocess.run(
        [sys.executable, "-c",
         "from repro.utils import native; print(native.native_available())"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout.strip() == "True"


needs_cc = pytest.mark.skipif(shutil.which(os.environ.get("CC", "cc")) is None,
                              reason="no C compiler")


def _cache(tmp_path):
    return tmp_path / f"repro-native-{os.getuid()}"


@needs_cc
def test_second_process_loads_the_cache_without_compiling(tmp_path):
    assert _probe(tmp_path)
    built = list(_cache(tmp_path).iterdir())
    assert len(built) == 1 and built[0].name.startswith("kernels-")
    assert _cache(tmp_path).stat().st_mode & 0o777 == 0o700
    # No compiler now: only the cached build can make this true.
    assert _probe(tmp_path, cc="false")
    assert list(_cache(tmp_path).iterdir()) == built


@needs_cc
@pytest.mark.parametrize("unsafe", ["group-writable", "symlink"])
def test_unsafe_cache_dir_is_not_used(tmp_path, unsafe):
    cache = _cache(tmp_path)
    if unsafe == "group-writable":
        cache.mkdir()
        cache.chmod(0o770)
        seen = cache
    else:
        seen = tmp_path / "elsewhere"
        seen.mkdir(mode=0o700)
        cache.symlink_to(seen)
    assert _probe(tmp_path)  # a private compile still serves kernels
    assert list(seen.iterdir()) == []
    assert not _probe(tmp_path, cc="false")  # and nothing was cached


@needs_cc
def test_truncated_cache_is_rebuilt(tmp_path):
    assert _probe(tmp_path)
    (so,) = _cache(tmp_path).iterdir()
    size = so.stat().st_size
    with open(so, "r+b") as fh:
        fh.truncate(64)
    assert _probe(tmp_path)
    assert so.stat().st_size == size
    assert _probe(tmp_path, cc="false")
