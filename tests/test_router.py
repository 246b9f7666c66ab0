"""Tests for the front-door router (`repro.router`).

The acceptance bar from the issue: protocol pass-through parity for
all five ops (an unmodified ``ServerClient`` against the router),
affinity stability under replica-set changes, failover on a
SIGKILLed replica with bit-identical answers via retry on a
survivor, and rolling drain/restart with zero lost requests.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import PhastEngine
from repro.graph import save_graph, save_hierarchy
from repro.router import (
    HashRing,
    PhastRouter,
    Replica,
    ReplicaManager,
    RouterConfig,
    route_in_thread,
)
from repro.server import (
    PhastService,
    ServerClient,
    ServerConfig,
    ServerError,
    serve_in_thread,
)


# ---------------------------------------------------------------------------
# Consistent-hash ring


def test_ring_is_deterministic_and_roughly_balanced():
    ring = HashRing(vnodes=64)
    for name in ("a", "b", "c"):
        ring.add(name)
    keys = [f"src:{i}" for i in range(3000)]
    homes = [ring.primary(k) for k in keys]
    assert homes == [ring.primary(k) for k in keys]  # stable
    counts = {name: homes.count(name) for name in ("a", "b", "c")}
    assert all(count > 500 for count in counts.values()), counts


def test_ring_removal_moves_only_the_lost_members_keys():
    """Affinity stability: survivors' keys don't move when one leaves."""
    ring = HashRing(vnodes=64)
    for name in ("a", "b", "c"):
        ring.add(name)
    keys = [f"src:{i}" for i in range(2000)]
    before = {k: ring.primary(k) for k in keys}
    ring.remove("b")
    after = {k: ring.primary(k) for k in keys}
    for k in keys:
        if before[k] != "b":
            assert after[k] == before[k], k
        else:
            assert after[k] in ("a", "c")
    # ...and adding it back restores the original assignment exactly.
    ring.add("b")
    assert {k: ring.primary(k) for k in keys} == before


def test_ring_preference_lists_every_member_once():
    ring = HashRing(vnodes=8)
    for name in ("a", "b", "c", "d"):
        ring.add(name)
    pref = ring.preference("some-key")
    assert sorted(pref) == ["a", "b", "c", "d"]
    assert ring.preference("some-key", limit=2) == pref[:2]
    ring.remove("a")
    ring.remove("b")
    ring.remove("c")
    ring.remove("d")
    assert ring.preference("some-key") == []
    assert ring.primary("some-key") is None


# ---------------------------------------------------------------------------
# Replica state machine (no I/O)


def test_replica_failure_escalation_and_recovery():
    transitions = []
    rep = Replica("r", "127.0.0.1", 1, down_after=3, warmup_s=0.0,
                  on_transition=lambda n, a, b: transitions.append((a, b)))
    assert rep.state == "unknown" and not rep.routable
    rep.apply_probe({"ready": True, "pid": 10, "uptime_seconds": 1.0})
    assert rep.state == "active"
    rep.record_failure()
    assert rep.state == "suspect" and rep.routable
    rep.record_failure()
    rep.record_failure()
    assert rep.state == "down" and not rep.routable
    # Recovery re-enters through warming (instant here: warmup_s=0).
    rep.apply_probe({"ready": True, "pid": 10, "uptime_seconds": 2.0})
    assert rep.state == "warming"
    assert rep.warm_fraction() == 1.0
    assert rep.state == "active"
    assert ("suspect", "down") in transitions
    assert ("down", "warming") in transitions


def test_replica_detects_restart_via_uptime_and_pid():
    rep = Replica("r", "127.0.0.1", 1, warmup_s=0.0)
    rep.apply_probe({"ready": True, "pid": 10, "uptime_seconds": 50.0})
    assert rep.state == "active" and rep.generation == 0
    # Uptime moving backwards = the process is new.
    rep.apply_probe({"ready": True, "pid": 10, "uptime_seconds": 0.5})
    assert rep.generation == 1
    assert rep.state == "warming"
    rep.warm_fraction()
    assert rep.state == "active"
    # A new pid is a restart even if uptime looks plausible.
    rep.apply_probe({"ready": True, "pid": 11, "uptime_seconds": 60.0})
    assert rep.generation == 2


def test_replica_warm_ramp_thins_traffic():
    rep = Replica("r", "127.0.0.1", 1, down_after=1, warmup_s=30.0)
    rep.apply_probe({"ready": True})
    rep.record_failure()
    assert rep.state == "down"
    rep.apply_probe({"ready": True})
    assert rep.state == "warming"
    admitted = sum(rep.admit_warm() for _ in range(100))
    # Early in a 30 s ramp the replica gets well under half its share
    # (the floor is 10%), but never zero — cold caches need traffic.
    assert 5 <= admitted <= 50, admitted


def test_replica_draining_ignores_probes_until_readmitted():
    rep = Replica("r", "127.0.0.1", 1, warmup_s=0.0)
    rep.apply_probe({"ready": True})
    rep.hold_out()
    assert rep.state == "draining" and not rep.routable
    rep.apply_probe({"ready": True})     # probes must not re-admit
    assert rep.state == "draining"
    rep.record_failure()                 # nor do failures demote
    assert rep.state == "draining"
    rep.readmit()
    assert rep.state == "warming"
    rep.warm_fraction()
    assert rep.state == "active"


# ---------------------------------------------------------------------------
# Router over in-thread replicas (wire-level, fast)


@pytest.fixture(scope="module")
def reference(road, road_ch):
    engine = PhastEngine(road_ch)
    return np.stack([engine.tree(s).dist for s in range(road.n)])


def _make_service(road, road_ch):
    return PhastService(
        road_ch, graph=road,
        config=ServerConfig(batch_max=4, max_wait_ms=1.0, max_pending=64),
    )


@pytest.fixture(scope="module")
def routed(road, road_ch):
    """Two in-thread replicas behind one router."""
    handles = [serve_in_thread(_make_service(road, road_ch))
               for _ in range(2)]
    router = PhastRouter(RouterConfig(probe_interval_ms=100.0,
                                      warmup_ms=200.0))
    for handle in handles:
        router.add_replica(handle.host, handle.port)
    with route_in_thread(router) as rh:
        yield rh, handles, router
    for handle in handles:
        handle.stop()


@pytest.fixture()
def rclient(routed):
    rh, _, _ = routed
    with ServerClient(rh.host, rh.port) as c:
        yield c


def test_all_five_ops_pass_through_bit_identical(rclient, reference, road):
    """An unmodified ServerClient sees exactly the single-server answers."""
    q = rclient.query(0, road.n - 1)
    assert q["distance"] == int(reference[0][road.n - 1])
    assert np.array_equal(rclient.tree(5), reference[5])
    targets = [1, 9, 17, 40]
    assert np.array_equal(rclient.one_to_many(3, targets),
                          reference[3][targets])
    budget = 5000
    assert np.array_equal(rclient.isochrone(2, budget),
                          np.flatnonzero(reference[2] <= budget))
    S, T = [0, 5, 11], [2, 3, 13, 19]
    assert np.array_equal(rclient.matrix(S, T),
                          reference[np.ix_(S, T)])


def test_admin_ops_answered_at_the_router(rclient):
    assert rclient.ping() is True
    info = rclient.info()
    assert info["router"]["replicas"] == 2
    assert info["n"] > 0  # proxied from a live replica
    health = rclient.health()
    assert health["router"] is True
    assert health["ready"] is True
    assert health["status"] == "ok"
    assert len(health["replicas"]) == 2
    for snap in health["replicas"].values():
        assert snap["state"] == "active"
        assert snap["uptime_seconds"] is not None  # probed generation signal
    metrics = rclient.metrics()
    assert metrics["router"] is True
    assert "affinity" in metrics and "replica_rps" in metrics


def test_affinity_keeps_a_hot_source_on_one_replica(rclient):
    before = rclient.metrics()["forwarded"]
    for _ in range(12):
        rclient.tree(7)
    after = rclient.metrics()["forwarded"]
    gained = {name: after.get(name, 0) - before.get(name, 0)
              for name in after}
    assert sorted(gained.values(), reverse=True)[0] >= 12
    affinity = rclient.metrics()["affinity"]
    assert affinity["hit_rate"] == 1.0
    assert affinity["spills"] == 0


def test_matrix_affinity_keeps_a_target_set_on_one_replica(routed, rclient):
    """Repeat target sets hit one replica's warm SelectionCache."""
    _, handles, _ = routed
    T = [2, 3, 13, 19, 23]
    for i in range(6):
        rclient.matrix([i, i + 7], T)
    hits = []
    for handle in handles:
        with ServerClient(handle.host, handle.port) as direct:
            snap = direct.metrics()["selection_cache"]
            hits.append((snap["hits"], snap["misses"]))
    # All six requests landed on the same replica: one cold miss,
    # five warm hits there, nothing on the other.
    total_hits = sum(h for h, _ in hits)
    assert total_hits >= 5, hits


def test_error_passthrough_and_router_rejections(rclient, road):
    with pytest.raises(ServerError) as err:
        rclient.tree(road.n + 5)  # replica-side 400
    assert err.value.code == 400
    with pytest.raises(ServerError) as err:
        rclient.call("bogus-op")  # router-side 400
    assert err.value.code == 400
    with pytest.raises(ServerError) as err:
        rclient.query(0, 1, timeout_ms=1e-6)  # replica-side 504
    assert err.value.code == 504


def test_holding_out_every_replica_returns_503(routed):
    rh, _, router = routed
    names = list(router.replicas)
    for name in names:
        rh.hold_out(name)
    try:
        with ServerClient(rh.host, rh.port) as c:
            health = c.health()
            assert health["ready"] is False
            assert health["status"] == "down"
            with pytest.raises(ServerError) as err:
                c.tree(0)
            assert err.value.code == 503
    finally:
        for name in names:
            rh.readmit(name)
    with ServerClient(rh.host, rh.port) as c:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if c.health()["ready"]:
                break
            time.sleep(0.05)
        assert c.health()["ready"] is True
        assert np.asarray(c.tree(0)).size > 0


def test_failover_when_a_thread_replica_drains_away(road, road_ch, reference):
    """Losing one of two replicas is invisible to the client."""
    handles = [serve_in_thread(_make_service(road, road_ch))
               for _ in range(2)]
    router = PhastRouter(RouterConfig(probe_interval_ms=50.0,
                                      warmup_ms=100.0, down_after=2))
    for handle in handles:
        router.add_replica(handle.host, handle.port)
    with route_in_thread(router) as rh:
        with ServerClient(rh.host, rh.port) as c:
            for s in (0, 9, 33):
                assert np.array_equal(c.tree(s), reference[s])
            handles[0].stop()  # drains: 503s, then a closed socket
            for i in range(30):
                s = i % road.n
                assert np.array_equal(c.tree(s), reference[s])
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = c.health()
                if health["status"] == "degraded":
                    break
                time.sleep(0.05)
            assert health["status"] == "degraded"
            assert health["ready"] is True
            states = [r["state"] for r in health["replicas"].values()]
            assert "down" in states and "active" in states
            assert c.metrics()["affinity"]["failovers"] >= 1
    handles[1].stop()


# ---------------------------------------------------------------------------
# Router over spawned `repro serve` subprocess replicas


@pytest.fixture(scope="module")
def artifacts(small_road, small_road_ch, tmp_path_factory):
    root = tmp_path_factory.mktemp("router-artifacts")
    graph_path = root / "g.npz"
    ch_path = root / "g.ch.npz"
    save_graph(small_road, graph_path)
    save_hierarchy(small_road_ch, ch_path)
    return str(graph_path), str(ch_path)


@pytest.fixture(scope="module")
def small_reference(small_road, small_road_ch):
    engine = PhastEngine(small_road_ch)
    return np.stack([engine.tree(s).dist for s in range(small_road.n)])


def test_sigkilled_replica_fails_over_bit_identical(
        artifacts, small_road, small_reference):
    """The kill-one-of-two acceptance run, at test scale: every answer
    during and after the SIGKILL must be bit-identical to serial PHAST,
    and the victim must rejoin through a generation bump + warm ramp."""
    graph_path, ch_path = artifacts
    manager = ReplicaManager()
    router = PhastRouter(RouterConfig(probe_interval_ms=50.0,
                                      warmup_ms=200.0, down_after=2))
    try:
        victim = manager.spawn(graph_path, ch_path)
        survivor = manager.spawn(graph_path, ch_path)
        for managed in manager.replicas.values():
            router.add_replica(managed.host, managed.port)
        with route_in_thread(router) as rh:
            with ServerClient(rh.host, rh.port) as c:
                for s in (0, 9, 33):
                    assert np.array_equal(c.tree(s), small_reference[s])

                os.kill(manager.replicas[victim].proc.pid, signal.SIGKILL)
                for i in range(40):
                    s = i % small_road.n
                    assert np.array_equal(c.tree(s), small_reference[s])
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    health = c.health()
                    if health["replicas"][victim]["state"] == "down":
                        break
                    time.sleep(0.05)
                assert health["replicas"][victim]["state"] == "down"
                assert health["replicas"][survivor]["state"] == "active"
                assert health["ready"] is True

                # Restart the victim; the probe must see the new pid
                # (generation bump) and walk it back in via warming.
                manager.stop(victim)  # reap the corpse
                manager.restart(victim)
                deadline = time.monotonic() + 15
                while time.monotonic() < deadline:
                    snap = c.health()["replicas"][victim]
                    if snap["state"] == "active":
                        break
                    time.sleep(0.05)
                assert snap["state"] == "active", snap
                assert snap["generation"] >= 1
                for s in (1, 8, 20):
                    assert np.array_equal(c.tree(s), small_reference[s])
                counts = c.metrics()["transitions"]["counts"]
                assert counts.get("down->warming", 0) >= 1
                assert counts.get("warming->active", 0) >= 1
    finally:
        manager.stop_all()


def test_rolling_restart_loses_zero_requests(
        artifacts, small_road, small_reference):
    """The zero-downtime-deploy acceptance run: continuous load through
    a full rolling drain/restart of both replicas, zero failures."""
    graph_path, ch_path = artifacts
    manager = ReplicaManager()
    router = PhastRouter(RouterConfig(probe_interval_ms=50.0,
                                      warmup_ms=200.0))
    try:
        for _ in range(2):
            manager.spawn(graph_path, ch_path)
        for managed in manager.replicas.values():
            router.add_replica(managed.host, managed.port)
        with route_in_thread(router) as rh:
            stop = threading.Event()
            failures: list[str] = []
            served = [0]

            def load() -> None:
                with ServerClient(rh.host, rh.port) as c:
                    i = 0
                    while not stop.is_set():
                        s = i % small_road.n
                        i += 1
                        try:
                            if np.array_equal(c.tree(s),
                                              small_reference[s]):
                                served[0] += 1
                            else:
                                failures.append(f"wrong answer for {s}")
                        except Exception as exc:
                            failures.append(repr(exc))

            loader = threading.Thread(target=load)
            loader.start()
            try:
                restarted = manager.rolling_restart(rh)
            finally:
                stop.set()
                loader.join()
            assert len(restarted) == 2
            assert failures == [], failures[:5]
            assert served[0] > 0
            counts = router.metrics.snapshot()["transitions"]["counts"]
            assert counts.get("active->draining", 0) >= 2
            assert counts.get("draining->warming", 0) >= 2
    finally:
        manager.stop_all()


def test_restart_closes_the_old_replicas_stdout(artifacts):
    """A spawned replica's stdout pipe is closed once its process is
    gone, so stopping and restarting a replica leaks no pipe."""
    graph_path, ch_path = artifacts
    manager = ReplicaManager()
    try:
        name = manager.spawn(graph_path, ch_path)
        managed = manager.replicas[name]
        old_proc, old_drain = managed.proc, managed.drain
        manager.stop(name)
        manager.restart(name)
        assert managed.proc is not old_proc
        assert managed.drain is not old_drain and managed.drain.is_alive()
        old_drain.join(timeout=30)
        assert not old_drain.is_alive()
        assert old_proc.stdout.closed
    finally:
        manager.stop_all()
    managed.drain.join(timeout=30)
    assert managed.proc.stdout.closed


def test_failed_spawn_closes_its_stdout(artifacts, monkeypatch):
    """A replica that exits before its banner leaves no open pipe."""
    import repro.router.replica as replica_mod

    started = []
    popen = replica_mod.subprocess.Popen

    def record(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(replica_mod.subprocess, "Popen", record)
    graph_path, ch_path = artifacts
    manager = ReplicaManager()
    with pytest.raises(RuntimeError, match="exited before binding"):
        manager.spawn(graph_path, ch_path, extra_args=("--no-such-flag",))
    (proc,) = started
    assert proc.stdout.closed and proc.returncode is not None
    assert manager.replicas == {}


def test_manager_rejects_process_control_of_adopted_replicas():
    manager = ReplicaManager()
    name = manager.adopt("127.0.0.1", 7171)
    assert name == "127.0.0.1:7171"
    with pytest.raises(ValueError):
        manager.stop(name)
    with pytest.raises(ValueError):
        manager.restart(name)
    manager.stop_all()  # adopted replicas are never signalled
