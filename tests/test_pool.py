"""Tests for the persistent shared-memory batch pool."""

import glob

import numpy as np
import pytest

from repro.core import PhastPool, TreeReducer
from repro.graph import INF
from repro.sssp import dijkstra


def _shm_names() -> set:
    """Names of live POSIX shared-memory segments (Linux)."""
    # Pool segments are named repro-<pid>-<hex>; psm_* covers anything
    # that fell back to (or predates) the anonymous default naming.
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/repro-*"))


class MaxLabelReducer(TreeReducer):
    """Max finite label over all trees (module-level: spawn-picklable)."""

    def make_state(self, ctx):
        return -1

    def fold(self, ctx, state, index, source, dist):
        finite = dist < INF
        return max(state, int(dist[finite].max()) if finite.any() else 0)

    def merge(self, states):
        return max(states) if states else -1


class GraphUsingReducer(TreeReducer):
    """Touches a published graph + array to exercise TaskContext."""

    def make_state(self, ctx):
        return np.zeros(ctx.n, dtype=np.int64)

    def fold(self, ctx, state, index, source, dist):
        assert ctx.graph("road").n == ctx.n
        assert ctx.array("weights").shape == (ctx.n,)
        np.maximum(state, np.where(dist < INF, dist, 0), out=state)
        return state

    def merge(self, states):
        out = states[0]
        for s in states[1:]:
            np.maximum(out, s, out=out)
        return out


class ExplodingReducer(TreeReducer):
    def make_state(self, ctx):
        return None

    def fold(self, ctx, state, index, source, dist):
        raise RuntimeError("boom in worker")

    def merge(self, states):
        return None


def _eccentricity(source, dist):
    finite = dist < INF
    return int(dist[finite].max()) if finite.any() else 0


@pytest.fixture(scope="module")
def reference(road):
    sources = list(range(0, 40, 5))
    ref = np.stack(
        [dijkstra(road, s, with_parents=False).dist for s in sources]
    )
    return sources, ref


def test_serial_pool_matches_dijkstra(road_ch, reference):
    sources, ref = reference
    with PhastPool(road_ch, num_workers=1) as pool:
        assert pool.serial
        assert np.array_equal(pool.trees(sources), ref)


@pytest.mark.parametrize("k", [1, 4])
def test_forced_pool_matches_serial(road_ch, reference, k):
    """force_pool exercises worker processes even on a 1-CPU host."""
    sources, ref = reference
    with PhastPool(
        road_ch, num_workers=2, force_pool=True, sources_per_sweep=k
    ) as pool:
        assert not pool.serial
        assert np.array_equal(pool.trees(sources), ref)
        # Warm engines: a second batch on the same workers.
        assert np.array_equal(pool.trees(sources[::-1]), ref[::-1])


def test_spawn_context_attach(road_ch, reference):
    """Shared-memory attach must work without fork's address-space copy."""
    sources, ref = reference
    with PhastPool(
        road_ch, num_workers=2, force_pool=True, context="spawn"
    ) as pool:
        assert np.array_equal(pool.trees(sources), ref)


@pytest.mark.parametrize("force", [False, True])
def test_reduce_matches_serial(road_ch, reference, force):
    sources, ref = reference
    expected = int(ref[ref < INF].max())
    with PhastPool(road_ch, num_workers=2, force_pool=force) as pool:
        assert pool.reduce(sources, MaxLabelReducer()) == expected


@pytest.mark.parametrize("force", [False, True])
def test_map_matches_serial(road_ch, reference, force):
    sources, ref = reference
    expected = [_eccentricity(s, row) for s, row in zip(sources, ref)]
    with PhastPool(
        road_ch, num_workers=2, force_pool=force, sources_per_sweep=3
    ) as pool:
        assert pool.map(sources, _eccentricity) == expected


def test_reducer_context_graphs_and_arrays(road, road_ch, reference):
    sources, ref = reference
    weights = np.arange(road.n, dtype=np.int64)
    expected = np.where(ref < INF, ref, 0).max(axis=0)
    for force in (False, True):
        with PhastPool(
            road_ch,
            num_workers=2,
            force_pool=force,
            graphs={"road": road},
            arrays={"weights": weights},
        ) as pool:
            got = pool.reduce(sources, GraphUsingReducer())
            assert np.array_equal(got, expected)


def test_missing_graph_raises(road_ch):
    # Serial raises the KeyError directly; the process path wraps the
    # worker traceback in a RuntimeError.  Both name the fix.
    with PhastPool(road_ch, num_workers=1) as pool:
        with pytest.raises((KeyError, RuntimeError), match="was not published"):
            pool.reduce([0], GraphUsingReducer())
    with PhastPool(road_ch, num_workers=2, force_pool=True) as pool:
        with pytest.raises(RuntimeError, match="was not published"):
            pool.reduce([0], GraphUsingReducer())


def test_no_segment_leak_on_close(road_ch):
    before = _shm_names()
    pool = PhastPool(road_ch, num_workers=2, force_pool=True)
    pool.trees([0, 5, 9])
    assert _shm_names() - before  # segments exist while the pool lives
    pool.close()
    assert _shm_names() <= before
    pool.close()  # idempotent


def test_no_segment_leak_on_exception(road_ch):
    before = _shm_names()
    with pytest.raises(RuntimeError, match="boom in worker"):
        with PhastPool(road_ch, num_workers=2, force_pool=True) as pool:
            pool.reduce([0, 1, 2], ExplodingReducer())
    assert _shm_names() <= before


def test_pool_survives_worker_batch_error(road_ch, reference):
    """A failed batch must not poison the next one (queues stay aligned)."""
    sources, ref = reference
    with PhastPool(road_ch, num_workers=2, force_pool=True) as pool:
        with pytest.raises(RuntimeError, match="boom in worker"):
            pool.reduce(sources, ExplodingReducer())
        assert np.array_equal(pool.trees(sources), ref)


def test_closed_pool_rejects_work(road_ch):
    pool = PhastPool(road_ch, num_workers=1)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.trees([0])


def test_alloc_output_and_out_kwarg(road_ch, reference):
    sources, ref = reference
    with PhastPool(road_ch, num_workers=2, force_pool=True) as pool:
        out = pool.alloc_output(len(sources))
        got = pool.trees(sources, out=out)
        assert got is not None and np.array_equal(out, ref)
        with pytest.raises(ValueError, match="int64 matrix"):
            pool.trees(sources, out=np.zeros((2, 2), dtype=np.int64))
        foreign = np.zeros((len(sources), pool.n), dtype=np.int64)
        with pytest.raises(ValueError, match="alloc_output"):
            pool.trees(sources, out=foreign)


def test_empty_batches(road_ch):
    with PhastPool(road_ch, num_workers=1) as pool:
        assert pool.trees([]).shape == (0, pool.n)
        assert pool.map([], _eccentricity) == []
        assert pool.reduce([], MaxLabelReducer()) == -1


def test_counters(road_ch):
    with PhastPool(road_ch, num_workers=1) as pool:
        pool.trees([0, 1])
        pool.map([2], _eccentricity)
        assert pool.batches_run == 2
        assert pool.trees_computed == 3


def test_apps_pool_vs_serial(road, road_ch):
    """The ported applications give identical results on the pool path."""
    from repro.apps import betweenness, diameter, exact_reaches
    from repro.apps.betweenness import betweenness_pool

    sources = np.arange(0, 40, 5)
    d_ser = diameter(road, road_ch, sources=sources)
    r_ser = exact_reaches(road, road_ch, sources=sources)
    b_ser = betweenness(road, road_ch, sources=sources)
    with PhastPool(
        road_ch, num_workers=2, force_pool=True, graphs={"graph": road}
    ) as pool:
        d_pool = diameter(road, pool=pool, sources=sources)
        r_pool = exact_reaches(road, pool=pool, sources=sources)
    assert d_pool == d_ser
    assert np.array_equal(r_pool, r_ser)
    with betweenness_pool(
        road_ch, road, num_workers=2, force_pool=True
    ) as pool:
        b_pool = betweenness(road, pool=pool, sources=sources)
    assert np.allclose(b_pool, b_ser)


def test_arcflags_pool_vs_serial(small_road):
    from repro.apps import compute_arc_flags, partition_graph
    from repro.apps.arcflags import arcflag_pool
    from repro.ch import contract_graph

    part = partition_graph(small_road, num_cells=4, seed=0)
    ref = compute_arc_flags(small_road, part, method="dijkstra")
    rch = contract_graph(small_road.reverse())
    ser = compute_arc_flags(small_road, part, reverse_ch=rch)
    with arcflag_pool(
        rch, small_road, part, num_workers=2, force_pool=True
    ) as pool:
        pooled = compute_arc_flags(small_road, part, pool=pool)
    assert np.array_equal(ref.flags, ser.flags)
    assert np.array_equal(ref.flags, pooled.flags)


def test_trees_per_core_shim_uses_pool(road, road_ch):
    """The compatibility shim returns owning copies in source order."""
    from repro.core import trees_per_core

    sources = [7, 1, 13]
    out = trees_per_core(road_ch, sources, num_workers=2, force_pool=True)
    for s, dist in zip(sources, out):
        # Owning copies: the pool's shared buffer dies with the call.
        assert dist.flags["OWNDATA"]
        assert np.array_equal(
            dist, dijkstra(road, s, with_parents=False).dist
        )


# -- generic task pool --------------------------------------------------------


def _square_plus(ctx, common, item):
    return item * item + common["offset"]


def _sum_boot(ctx, common, item):
    return int(ctx.boot["base"].sum()) + item


def _sum_published(ctx, common, item):
    views = ctx.attach(*common["segment"])
    return int(views["vals"][item])


def _count_calls(ctx, common, item):
    ctx.state["calls"] = ctx.state.get("calls", 0) + 1
    return ctx.state["calls"]


@pytest.mark.parametrize("force", [False, True])
def test_task_pool_submit_ordering(force):
    from repro.core import TaskPool

    items = list(range(23))
    with TaskPool(num_workers=2, force_pool=force) as pool:
        got = pool.submit(_square_plus, items, common={"offset": 7})
        assert got == [i * i + 7 for i in items]
        assert pool.submit(_square_plus, [], common={"offset": 0}) == []


@pytest.mark.parametrize("force", [False, True])
def test_task_pool_boot_arrays(force):
    from repro.core import TaskPool

    base = np.arange(10, dtype=np.int64)
    with TaskPool(
        arrays={"base": base}, num_workers=2, force_pool=force
    ) as pool:
        assert pool.submit(_sum_boot, [0, 100]) == [45, 145]


@pytest.mark.parametrize("force", [False, True])
def test_task_pool_publish_and_retire(force):
    """Dynamic segments: publish → attach-by-name in handlers → retire.

    Published arrays are snapshots — mutating the source afterwards
    must not leak into what workers read — and closing the pool must
    leave no orphaned /dev/shm segments.
    """
    from repro.core import TaskPool

    before = _shm_names()
    vals = np.arange(0, 50, 5, dtype=np.int64)
    with TaskPool(num_workers=2, force_pool=force) as pool:
        segment = pool.publish_arrays({"vals": vals})
        vals += 1000  # snapshot semantics: workers must not see this
        got = pool.submit(
            _sum_published, [0, 3, 9], common={"segment": segment}
        )
        assert got == [0, 15, 45]
        pool.retire_publication(segment[0])
        # A fresh publication under a new name works after retiring.
        second = pool.publish_arrays({"vals": vals})
        assert pool.submit(
            _sum_published, [1], common={"segment": second}
        ) == [1005]
    assert _shm_names() <= before


def test_task_context_state_persists_across_submissions():
    """A worker's scratch state survives between submit() calls."""
    from repro.core import TaskPool

    with TaskPool(num_workers=1) as pool:
        first = pool.submit(_count_calls, [0, 0])
        second = pool.submit(_count_calls, [0])
        assert first == [1, 2]
        assert second == [3]


def test_task_pool_closed_rejects_work():
    from repro.core import TaskPool

    pool = TaskPool(num_workers=1)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(_square_plus, [1], common={"offset": 0})


_GUARD_SCRIPT = r"""
import glob, os, signal, sys, time

from repro.ch import contract_graph
from repro.core import PhastPool, install_signal_guard
from repro.graph import RoadNetworkParams, road_network

graph = road_network(RoadNetworkParams(rows=6, cols=6, seed=1))
pool = PhastPool(contract_graph(graph), num_workers=2, force_pool=True)
pool.trees([0])  # materialize the output segment too
install_signal_guard()
# Every segment this process created: the generation and the output.
names = glob.glob(f"/dev/shm/repro-{os.getpid()}-*")
print(*(os.path.basename(p) for p in names), "READY", flush=True)
while True:  # keep sweeping until the parent kills us
    pool.trees([1, 2])
"""


def test_signal_guard_unlinks_shm_on_sigterm(tmp_path):
    """A SIGTERM mid-sweep must not leak /dev/shm segments."""
    import os
    import signal
    import subprocess
    import sys
    from multiprocessing import shared_memory

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    proc = subprocess.Popen(
        [sys.executable, "-c", _GUARD_SCRIPT],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        line = proc.stdout.readline().split()
        assert line[-1] == "READY", line
        shm_names = line[:-1]
        assert len(shm_names) >= 2, line
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # The guard re-raises with default semantics: killed by SIGTERM.
    assert rc == -signal.SIGTERM
    for name in shm_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
