"""Metric customization and hot weight swap.

The topology/metric split's contract is *bit-exactness*: distances
computed over a customized hierarchy must equal the full
re-contraction's (and Dijkstra's) exactly, for any nonnegative weight
vector over the same structure.  The serving half's contract is
*atomicity*: a hot swap under load answers every request from exactly
one metric generation — old or new, never a mixture.
"""

from __future__ import annotations

import glob
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ch import build_topology, contract_graph, customize
from repro.ch.customize import CHTopology, INF
from repro.core import LevelSweep, PhastEngine, PhastPool
from repro.graph import (
    RoadNetworkParams,
    load_metric,
    load_topology,
    random_graph,
    road_network,
    save_metric,
    save_topology,
)
from repro.graph.serialize import ArtifactFormatError
from repro.server import (
    PhastService,
    ServerClient,
    ServerConfig,
    ServerError,
    serve_in_thread,
)
from repro.server import protocol
from repro.sssp import dijkstra


def _shm_names() -> set:
    return set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(scope="module")
def topo(road):
    return build_topology(road)


@pytest.fixture(scope="module")
def weights(road):
    return np.asarray(road.arc_len, dtype=np.int64)


def _reweigh(graph, weights):
    """The same structure with a different weight vector."""
    from repro.graph import StaticGraph

    return StaticGraph.from_csr(
        graph.first, graph.arc_head, np.asarray(weights, dtype=np.int64)
    )


# ---------------------------------------------------------------------------
# Correctness: customize == re-contraction == Dijkstra, bit for bit


def test_customize_matches_dijkstra(road, topo, weights):
    metric = customize(topo, weights)
    engine = PhastEngine(topo.instantiate(metric))
    for s in range(0, road.n, 37):
        assert np.array_equal(engine.tree(s).dist, dijkstra(road, s).dist)


def test_recustomize_matches_full_recontraction(road, topo):
    """New weights via customize == contracting the reweighed graph."""
    rng = np.random.default_rng(5)
    new_w = rng.integers(1, 10_000, size=road.m, dtype=np.int64)
    reweighed = _reweigh(road, new_w)
    fresh = PhastEngine(contract_graph(reweighed))
    swapped = PhastEngine(topo.instantiate(customize(topo, new_w)))
    for s in range(0, road.n, 41):
        want = fresh.tree(s).dist
        assert np.array_equal(swapped.tree(s).dist, want)
        assert np.array_equal(want, dijkstra(reweighed, s).dist)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_customize_property_random_weights(road, topo, seed):
    """Any weight vector: customized distances == Dijkstra's, exactly."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 1_000_000, size=road.m, dtype=np.int64)
    engine = PhastEngine(topo.instantiate(customize(topo, w)))
    reweighed = _reweigh(road, w)
    for s in (0, road.n // 2, road.n - 1):
        assert np.array_equal(engine.tree(s).dist, dijkstra(reweighed, s).dist)


def test_customize_random_multigraph():
    """Non-road structure (parallel arcs, asymmetric) customizes too."""
    g = random_graph(120, 420, max_len=50, seed=11, connected=True)
    topo = build_topology(g)
    rng = np.random.default_rng(2)
    w = rng.integers(1, 500, size=g.m, dtype=np.int64)
    engine = PhastEngine(topo.instantiate(customize(topo, w)))
    reweighed = _reweigh(g, w)
    for s in range(0, g.n, 17):
        assert np.array_equal(engine.tree(s).dist, dijkstra(reweighed, s).dist)


def test_customize_rejects_wrong_length(topo, weights):
    with pytest.raises(ValueError):
        customize(topo, weights[:-1])


def test_instantiate_refuses_foreign_metric(road, topo, weights):
    other = build_topology(
        road_network(RoadNetworkParams(rows=8, cols=8, seed=7))
    )
    metric = customize(other, np.asarray(
        road_network(RoadNetworkParams(rows=8, cols=8, seed=7)).arc_len,
        dtype=np.int64))
    with pytest.raises(ValueError):
        topo.instantiate(metric)


def test_instantiate_refuses_infinite_weights(topo, weights):
    w = weights.copy()
    w[0] = INF
    with pytest.raises(ValueError):
        topo.instantiate(customize(topo, w))


# ---------------------------------------------------------------------------
# Artifact round trips


def test_topology_metric_roundtrip(tmp_path, road, topo, weights):
    tp = tmp_path / "road.topo.npz"
    mp = tmp_path / "road.metric.npz"
    save_topology(topo, tp)
    metric = customize(topo, weights)
    save_metric(metric, mp)
    topo2 = load_topology(tp)
    assert topo2.key == topo.key
    metric2 = load_metric(mp, topology=topo2)
    assert np.array_equal(metric2.weights, metric.weights)
    engine = PhastEngine(topo2.instantiate(metric2))
    assert np.array_equal(engine.tree(0).dist, dijkstra(road, 0).dist)


def test_load_metric_cross_checks_topology(tmp_path, road, topo, weights):
    other = build_topology(
        road_network(RoadNetworkParams(rows=8, cols=8, seed=7))
    )
    mp = tmp_path / "foreign.metric.npz"
    save_metric(
        customize(other, np.asarray(
            road_network(RoadNetworkParams(rows=8, cols=8, seed=7)).arc_len,
            dtype=np.int64)),
        mp,
    )
    with pytest.raises(ArtifactFormatError):
        load_metric(mp, topology=topo)


# ---------------------------------------------------------------------------
# Pool-level hot swap


@pytest.fixture(scope="module")
def custom_ch(topo, weights):
    return topo.instantiate(customize(topo, weights))


@pytest.mark.parametrize("which", ["road_ch", "custom_ch"])
def test_one_lane_trees_equal_tree(request, scalar_threshold, which):
    """``trees([s])`` takes the scalar-prefix path of ``tree(s)`` and
    answers the same, on the witness and the customized hierarchy."""
    ch = request.getfixturevalue(which)
    for threshold in (LevelSweep.SCALAR_ARC_THRESHOLD, 0):
        with scalar_threshold(threshold):
            engine = PhastEngine(ch)
        for s in (0, ch.n // 2, ch.n - 1):
            tree = engine.tree(s).dist
            assert np.array_equal(engine.trees([s]), tree[None, :])


def test_pool_swap_serial_bit_identical(road, topo, weights, custom_ch):
    rng = np.random.default_rng(3)
    new_w = rng.integers(1, 5_000, size=road.m, dtype=np.int64)
    new_ch = topo.instantiate(customize(topo, new_w))
    sources = list(range(0, road.n, 29))
    with PhastPool(custom_ch, num_workers=1) as pool:
        before = np.array(pool.trees(sources))
        gen = pool.swap_metric(new_ch)
        assert gen == 1 and pool.metric_generation == 1
        after = np.array(pool.trees(sources))
    ref_old = PhastEngine(custom_ch)
    ref_new = PhastEngine(new_ch)
    for i, s in enumerate(sources):
        assert np.array_equal(before[i], ref_old.tree(s).dist)
        assert np.array_equal(after[i], ref_new.tree(s).dist)


def test_pool_swap_processes_bit_identical(road, topo, weights, custom_ch):
    rng = np.random.default_rng(4)
    new_w = rng.integers(1, 5_000, size=road.m, dtype=np.int64)
    new_ch = topo.instantiate(customize(topo, new_w))
    sources = list(range(0, road.n, 29))
    leaked = _shm_names()
    with PhastPool(custom_ch, num_workers=2, force_pool=True) as pool:
        before = np.array(pool.trees(sources))
        assert pool.swap_metric(new_ch) == 1
        after = np.array(pool.trees(sources))
        # Swap back: generation keeps climbing, answers keep matching.
        assert pool.swap_metric(custom_ch) == 2
        again = np.array(pool.trees(sources))
    ref_old = PhastEngine(custom_ch)
    ref_new = PhastEngine(new_ch)
    for i, s in enumerate(sources):
        assert np.array_equal(before[i], ref_old.tree(s).dist)
        assert np.array_equal(after[i], ref_new.tree(s).dist)
        assert np.array_equal(again[i], before[i])
    assert _shm_names() <= leaked


def test_pool_swap_refuses_structure_change(road, custom_ch):
    other = contract_graph(road)  # witness CH: different closure
    with PhastPool(custom_ch, num_workers=1) as pool:
        with pytest.raises(ValueError, match="structure"):
            pool.swap_metric(other)


def test_pool_swap_after_worker_kill_recovers(road, topo, weights, custom_ch):
    """A respawned worker (gen-0 boot arrays) must adopt the live
    metric before answering — the never-stale path."""
    rng = np.random.default_rng(8)
    new_ch = topo.instantiate(customize(
        topo, rng.integers(1, 5_000, size=road.m, dtype=np.int64)))
    sources = list(range(0, road.n, 31))
    leaked = _shm_names()
    with PhastPool(custom_ch, num_workers=2, force_pool=True) as pool:
        pool.trees(sources[:2])  # warm
        victim = pool.supervisor.processes()[0]
        os.kill(victim.pid, signal.SIGKILL)
        assert pool.swap_metric(new_ch) == 1
        got = np.array(pool.trees(sources))
    ref = PhastEngine(new_ch)
    for i, s in enumerate(sources):
        assert np.array_equal(got[i], ref.tree(s).dist)
    assert _shm_names() <= leaked


def _mapped_segments(pid: int) -> set:
    """Names of the ``repro-`` segments process ``pid`` has mapped."""
    names = set()
    with open(f"/proc/{pid}/maps") as fh:
        for line in fh:
            fields = line.split(maxsplit=5)
            if len(fields) == 6 and "/dev/shm/repro-" in fields[5]:
                path = fields[5].strip().removesuffix(" (deleted)")
                names.add(os.path.basename(path))
    return names


@pytest.mark.parametrize(
    "pool_kwargs",
    [{"num_workers": 1}, {"num_workers": 2, "force_pool": True}],
)
def test_pool_memo_eviction_is_exact(road, topo, custom_ch, pool_kwargs):
    """6 swaps interleaved with 8 selection publish/matrix/retire cycles.

    Each cycle publishes more selections than the memo holds, so
    entries are evicted while others still use the same generation.
    Every answer stays bit-identical to in-process engines over the
    live hierarchy; workers map only the live generation, the output
    and at most the memo cap of selections; the serial pool holds one
    generation.
    """
    from repro.core import RPhastEngine
    from repro.core.pool import _MEMO_CAP

    rng = np.random.default_rng(11)
    sources = list(range(0, road.n, 13))
    leaked = _shm_names()
    inherited = _mapped_segments(os.getpid())
    ch = custom_ch
    with PhastPool(ch, **pool_kwargs) as pool:

        def check_held(live: set) -> None:
            for proc in (pool.supervisor.processes() if pool.supervisor
                         else []):
                mapped = _mapped_segments(proc.pid) - inherited
                assert mapped <= live, (cycle, mapped - live)
                assert len(mapped - {pool._hier[0], pool._out[0]}) \
                    <= _MEMO_CAP
            if pool.serial:
                generations = [name for name, arrays in pool._segments.items()
                               if "up:first" in arrays]
                assert generations == [pool._hier[0]]
                assert [k for k in pool._ctx._memo if k[0] == "phast"] == [
                    ("phast", pool._hier[0])]

        for cycle in range(8):
            if 1 <= cycle <= 6:
                ch = topo.instantiate(customize(
                    topo, rng.integers(1, 5_000, size=road.m, dtype=np.int64)))
                assert pool.swap_metric(ch) == cycle
            reference = PhastEngine(ch).trees(sources)
            assert np.array_equal(pool.trees(sources), reference)
            check_held({pool._hier[0], pool._out[0]})
            engines = [
                RPhastEngine(ch, rng.choice(road.n, size=9, replace=False))
                for _ in range(_MEMO_CAP)
            ]
            pubs = [pool.publish_arrays(e.selection_arrays()) for e in engines]
            for eng, pub in zip(engines * 2, pubs * 2):
                assert np.array_equal(pool.matrix(sources, selection=pub),
                                      eng.many_to_many(sources))
            assert np.array_equal(pool.trees(sources), reference)
            check_held({pool._hier[0], pool._out[0],
                        *(name for name, _ in pubs)})
            for name, _ in pubs:
                pool.retire_publication(name)
    assert _shm_names() <= leaked


# ---------------------------------------------------------------------------
# Service-level swap: atomicity under load, cache invalidation


@pytest.fixture(scope="module")
def swap_server(road, topo, weights):
    metric = customize(topo, weights)
    service = PhastService(
        topology=topo, metric=metric,
        config=ServerConfig(batch_max=4, max_wait_ms=5.0, max_pending=64),
    )
    with serve_in_thread(service) as handle:
        yield handle


def test_swap_under_load_never_mixes_metrics(road, topo, weights,
                                             swap_server):
    """Concurrent trees during a swap: every answer equals one full
    generation's distances — no request sees both metrics."""
    rng = np.random.default_rng(12)
    new_w = rng.integers(1, 5_000, size=road.m, dtype=np.int64)
    gen_dists = [
        PhastEngine(topo.instantiate(customize(topo, w))).tree(17).dist
        for w in (weights, new_w)
    ]
    stop = threading.Event()
    failures: list[str] = []
    seen_new = threading.Event()

    def hammer() -> None:
        try:
            with ServerClient(swap_server.host, swap_server.port) as c:
                while not stop.is_set():
                    got = c.tree(17)
                    if np.array_equal(got, gen_dists[1]):
                        seen_new.set()
                    elif not np.array_equal(got, gen_dists[0]):
                        failures.append("mixed-metric tree answer")
                        return
        except (ServerError, ConnectionError, OSError) as exc:
            failures.append(str(exc))

    threads = [threading.Thread(target=hammer, daemon=True)
               for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.1)
    with ServerClient(swap_server.host, swap_server.port) as c:
        report = c.swap_metric(weights=new_w, timeout=120)
    time.sleep(0.2)
    stop.set()
    for t in threads:
        t.join(30)
    assert not failures, failures
    assert report["metric_generation"] >= 1
    assert seen_new.wait(5), "no post-swap answer observed"
    # Restore the original metric for the other module tests.
    with ServerClient(swap_server.host, swap_server.port) as c:
        c.swap_metric(weights=weights, timeout=120)


def test_swap_invalidates_matrix_selection_cache(road, topo, weights,
                                                 swap_server):
    """Repeated target set: the cached restricted selection embeds arc
    lengths, so a swap must invalidate it, not serve stale rows."""
    sources = [3, 9, 27]
    targets = [5, 50, 100, 200]
    rng = np.random.default_rng(13)
    new_w = rng.integers(1, 5_000, size=road.m, dtype=np.int64)
    eng_old = PhastEngine(topo.instantiate(customize(topo, weights)))
    eng_new = PhastEngine(topo.instantiate(customize(topo, new_w)))
    want_old = np.stack([eng_old.tree(s).dist[targets] for s in sources])
    want_new = np.stack([eng_new.tree(s).dist[targets] for s in sources])
    with ServerClient(swap_server.host, swap_server.port) as c:
        first = c.matrix(sources, targets)
        assert np.array_equal(first, want_old)
        c.matrix(sources, targets)  # warm the selection cache
        gen_before = c.info()["metric_generation"]
        c.swap_metric(weights=new_w, timeout=120)
        after = c.matrix(sources, targets)
        assert np.array_equal(after, want_new)
        info = c.info()
        assert info["metric_generation"] == gen_before + 1
        c.swap_metric(weights=weights, timeout=120)


def test_info_health_report_protocol_and_generation(swap_server):
    with ServerClient(swap_server.host, swap_server.port) as c:
        info = c.info()
        health = c.health()
    for payload in (info, health):
        assert payload["protocol_version"] == protocol.PROTOCOL_VERSION
        assert "swap_metric" in payload["ops"]
        assert "metric_generation" in payload
    assert info["topology_resident"] is True


def test_swap_requires_weights_xor_path(swap_server):
    with ServerClient(swap_server.host, swap_server.port) as c:
        with pytest.raises(ServerError) as exc:
            c.call("swap_metric")
        assert exc.value.code == protocol.BAD_REQUEST
        with pytest.raises(ServerError) as exc:
            c.call("swap_metric", weights=[1, 2], path="x.npz")
        assert exc.value.code == protocol.BAD_REQUEST


def test_swap_from_a_bad_metric_path_is_a_bad_request(swap_server, topo,
                                                      small_road, tmp_path):
    """A path to no file, to a file that is not a metric, or to another
    topology's metric is the client's error (400), and nothing swaps."""
    text = tmp_path / "hostname"
    text.write_text("not a metric\n")
    topology_file = tmp_path / "topology.npz"
    save_topology(topo, topology_file)
    other = build_topology(small_road)
    other_metric = tmp_path / "other.npz"
    save_metric(customize(other, small_road.arc_len), other_metric)
    with ServerClient(swap_server.host, swap_server.port) as c:
        generation = c.info()["metric_generation"]
        for path in (tmp_path / "missing.npz", text, topology_file,
                     other_metric):
            with pytest.raises(ServerError) as exc:
                c.swap_metric(path=str(path))
            assert exc.value.code == protocol.BAD_REQUEST, exc.value
            assert str(path) in exc.value.message
            assert c.info()["metric_generation"] == generation


def test_swap_rejected_without_topology(road, road_ch):
    """A hierarchy-only server cannot customize; swap is a clean 400."""
    service = PhastService(
        road_ch, config=ServerConfig(max_pending=8),
    )
    with serve_in_thread(service) as handle:
        with ServerClient(handle.host, handle.port) as c:
            with pytest.raises(ServerError) as exc:
                c.swap_metric(weights=[1] * road.m)
            assert exc.value.code == protocol.BAD_REQUEST
            assert c.info()["topology_resident"] is False


# ---------------------------------------------------------------------------
# Registry-derived surfaces


def test_registry_partitions_ops():
    names = {spec.name for spec in protocol.OPS}
    assert set(protocol.WORK_OPS) | set(protocol.ADMIN_OPS) \
        | set(protocol.CONTROL_OPS) == names
    assert set(protocol.WORK_OPS) == {
        "query", "tree", "one_to_many", "isochrone", "matrix"}
    assert protocol.CONTROL_OPS == ("swap_metric",)


def test_validate_request_defaults_and_errors():
    spec = protocol.OPS_BY_NAME["one_to_many"]
    fields = protocol.validate_request(
        spec, {"source": 3, "targets": [1, 2]}, 10)
    assert fields == {"source": 3, "targets": [1, 2],
                      "timeout_ms": "unset"}
    with pytest.raises(protocol.RequestValidationError):
        protocol.validate_request(spec, {"targets": [1]}, 10)
    with pytest.raises(protocol.RequestValidationError):
        protocol.validate_request(spec, {"source": 11, "targets": [1]}, 10)
    with pytest.raises(protocol.RequestValidationError):
        protocol.validate_request(spec, {"source": 1, "targets": []}, 10)


def test_client_plural_keywords_and_deprecation(swap_server):
    with ServerClient(swap_server.host, swap_server.port) as c:
        a = c.tree(sources=17)
        b = c.tree(sources=[17])
        assert np.array_equal(a, b)
        with pytest.raises(TypeError):
            c.tree(source=17)
        with pytest.raises(TypeError):
            c.tree(sources=17, source=17)
        with pytest.raises(ValueError):
            c.query(sources=[1, 2], targets=3)
