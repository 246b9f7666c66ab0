"""Chaos tests: the pool under injected worker faults, and the server
client under transport failures.

PHAST sweeps are deterministic, so every recovery scenario has an
exact oracle — the distance matrix after a crash, hang, or respawn
must be bit-identical to the undisturbed run.  Each scenario also
asserts zero shared-memory leakage: fault tolerance that trades
crashes for /dev/shm exhaustion is no fault tolerance at all.
"""

import glob
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import ChunkQuarantined, FaultPlan, PhastPool, parse_fault_plan
from repro.server import ServerClient, ServerError, protocol
from repro.sssp import dijkstra


def _shm_names() -> set:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(scope="module")
def reference(road):
    sources = list(range(0, 40, 5))
    ref = np.stack(
        [dijkstra(road, s, with_parents=False).dist for s in sources]
    )
    return sources, ref


# ---------------------------------------------------------------------------
# Fault plan parsing


def test_parse_fault_plan_specs():
    assert parse_fault_plan(None) is None
    assert parse_fault_plan("") is None
    assert parse_fault_plan("   ") is None

    plan = parse_fault_plan("crash")
    assert plan == FaultPlan(kind="crash", times=1)

    plan = parse_fault_plan("crash:chunk=2,times=2")
    assert (plan.kind, plan.chunk, plan.times) == ("crash", 2, 2)

    plan = parse_fault_plan("hang:chunk=1,worker=0")
    assert (plan.kind, plan.chunk, plan.worker, plan.times) == ("hang", 1, 0, 1)

    plan = parse_fault_plan("slow:ms=25")
    assert (plan.kind, plan.ms, plan.times) == ("slow", 25.0, None)

    plan = parse_fault_plan("slow:chunk=any,times=inf")
    assert (plan.chunk, plan.times) == (None, None)


@pytest.mark.parametrize("spec", [
    "explode",                 # unknown kind
    "crash:chunk",             # not key=value
    "crash:chunk=x",           # non-integer
    "crash:volume=11",         # unknown field
    "crash:times=0",           # budget must be >= 1
    "slow:ms=-5",              # negative sleep
])
def test_parse_fault_plan_rejects(spec):
    with pytest.raises(ValueError):
        parse_fault_plan(spec)


def test_fault_plan_env_pickup(road_ch, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT", "slow:ms=1,worker=0")
    with PhastPool(road_ch, num_workers=1) as pool:
        assert pool._fault_plan == FaultPlan(kind="slow", ms=1.0, worker=0)
    monkeypatch.delenv("REPRO_FAULT")
    with PhastPool(road_ch, num_workers=1) as pool:
        assert pool._fault_plan is None


# ---------------------------------------------------------------------------
# Pool-level chaos


def test_crash_fault_recovers_bit_identical(road_ch, reference):
    """A worker SIGKILLed mid-chunk: survivors redo its work exactly."""
    sources, ref = reference
    before = _shm_names()
    with PhastPool(
        road_ch, num_workers=2, force_pool=True,
        fault_plan="crash:chunk=1",
    ) as pool:
        assert np.array_equal(pool.trees(sources), ref)
        health = pool.health()
        assert health["deaths"] >= 1
        assert health["restarts"] >= 1
        assert health["chunk_retries"] >= 1
        assert health["workers_alive"] == 2  # replacement rejoined
        # The respawned worker re-attached to the same segments: a
        # second batch must also be exact.
        assert np.array_equal(pool.trees(sources), ref)
    assert _shm_names() <= before


def test_preprocessing_crash_recovers_bit_identical(road, monkeypatch):
    """A contraction worker SIGKILLed mid-round: the shard is
    re-dispatched and the finished hierarchy is bit-identical."""
    from repro.ch import contract_graph

    ref = contract_graph(road)
    before = _shm_names()
    # The crash fault is a SIGKILL the worker sends itself at the top
    # of its first chunk (times=1: one death pool-wide, ever).
    monkeypatch.setenv("REPRO_FAULT", "crash:chunk=0,times=1")
    ch = contract_graph(road, num_workers=2, force_pool=True)
    monkeypatch.delenv("REPRO_FAULT")
    health = ch.preprocessing_stats["pool_health"]
    assert health["deaths"] >= 1
    assert health["restarts"] >= 1
    assert health["chunk_retries"] >= 1
    assert np.array_equal(ref.rank, ch.rank)
    assert np.array_equal(ref.level, ch.level)
    assert np.array_equal(ref.upward.arc_head, ch.upward.arc_head)
    assert np.array_equal(ref.upward.arc_len, ch.upward.arc_len)
    assert np.array_equal(ref.downward_rev.arc_head, ch.downward_rev.arc_head)
    assert ref.num_shortcuts == ch.num_shortcuts
    assert _shm_names() <= before


def test_external_sigkill_recovers_bit_identical(road_ch, reference):
    """An OOM-style kill from outside (not injected in the chunk loop)."""
    sources, ref = reference
    before = _shm_names()
    with PhastPool(
        road_ch, num_workers=2, force_pool=True,
        # Stretch every chunk so the kill lands mid-batch.
        fault_plan="slow:ms=150",
    ) as pool:
        victim = pool.supervisor.processes()[0]
        done = threading.Event()

        def assassin():
            time.sleep(0.2)
            try:
                os.kill(victim.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            done.set()

        threading.Thread(target=assassin, daemon=True).start()
        got = pool.trees(sources)
        done.wait(5)
        assert np.array_equal(got, ref)
    assert _shm_names() <= before


def test_hang_fault_reclaimed_by_chunk_deadline(road_ch, reference):
    """A wedged worker (heartbeat alive, chunk stuck) hits the deadline."""
    sources, ref = reference
    before = _shm_names()
    with PhastPool(
        road_ch, num_workers=2, force_pool=True,
        heartbeat_interval=0.05, chunk_timeout=0.5,
        fault_plan="hang:chunk=3",
    ) as pool:
        assert np.array_equal(pool.trees(sources), ref)
        health = pool.health()
        assert health["wedged"] >= 1
        assert health["restarts"] >= 1
    assert _shm_names() <= before


def test_poison_chunk_quarantined_then_pool_usable(road, road_ch, reference):
    """A chunk that kills two workers fails structurally, not fatally."""
    sources, ref = reference
    before = _shm_names()
    with PhastPool(
        road_ch, num_workers=2, force_pool=True,
        max_chunk_retries=2,
        fault_plan="crash:chunk=2,times=2",
    ) as pool:
        with pytest.raises(ChunkQuarantined) as excinfo:
            pool.trees(sources)
        exc = excinfo.value
        assert exc.chunk_id == 2
        assert exc.sources == [sources[2]]
        assert exc.deaths == 2
        assert pool.health()["chunks_quarantined"] == 1
        # The fault budget is spent AND the failed batch's stale
        # writers are fenced, so the next batch must be exact over
        # *different* sources — these reuse the same output rows, and
        # a chunk of the failed batch still executing in a survivor
        # would overwrite them with the old batch's values.  (Reusing
        # identical sources would mask exactly that race: a stale
        # writer scatters the same bits the new batch expects.)
        sources2 = [s + 1 for s in sources]
        ref2 = np.stack(
            [dijkstra(road, s, with_parents=False).dist for s in sources2]
        )
        assert np.array_equal(pool.trees(sources2), ref2)
        # The rebuilt worker set also replays the original batch clean.
        assert np.array_equal(pool.trees(sources), ref)
    assert _shm_names() <= before


def test_degraded_pool_serves_without_respawn(road_ch, reference):
    """With the respawn budget at zero, survivors absorb a death.

    Also guards the wait-set hygiene: the dead incarnation's channel
    must be retired (its EOF'd result pipe is permanently "ready", so
    leaving it in the wait set would busy-spin the parent for the
    rest of the pool's degraded life).
    """
    sources, ref = reference
    before = _shm_names()
    with PhastPool(
        road_ch, num_workers=2, force_pool=True,
        max_respawns=0,
        fault_plan="crash:chunk=1",
    ) as pool:
        assert np.array_equal(pool.trees(sources), ref)
        health = pool.health()
        assert health["deaths"] == 1
        assert health["restarts"] == 0
        assert health["workers_alive"] == 1
        assert any(ch is None for ch in pool._channels)
        # The degraded pool keeps serving exact results.
        assert np.array_equal(pool.trees(sources), ref)
    assert _shm_names() <= before


class _FakeProc:
    """Stands in for a worker Process under supervisor unit tests."""

    def __init__(self) -> None:
        self.exitcode = None

    def kill(self) -> None:
        self.exitcode = -9

    def join(self, timeout=None) -> None:
        pass


def _wait_until(cond, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(0.01)
    return cond()


def test_supervisor_retries_empty_slot_after_transient_spawn_failure():
    """A fork failure leaves the slot empty; later scans refill it."""
    import multiprocessing as mp

    from repro.core import WorkerSupervisor

    ctx = mp.get_context("fork")
    sup = WorkerSupervisor(ctx, 1, heartbeat_interval=0.02, max_respawns=4)
    spawned: list[_FakeProc] = []
    fail_once = [True]

    def spawn(slot, incarnation):
        if incarnation >= 1 and fail_once:
            fail_once.pop()
            raise OSError("fork: EAGAIN")
        proc = _FakeProc()
        spawned.append(proc)
        return proc

    sup.start(spawn)
    try:
        spawned[0].exitcode = 1  # the boot worker "dies"
        assert _wait_until(lambda: sup.stats()["restarts"] == 1)
        assert sup.alive_count() == 1
        # Both the failed and the successful attempt spent budget.
        assert sup.respawn_budget == 2
        assert sup.stats()["spawn_failures"] == 1
        assert sup.healthy()
    finally:
        sup.stop()


def test_supervisor_persistent_spawn_failure_drains_budget():
    """Spawn failures must not wedge the pool in a can-respawn limbo.

    If the empty slot were never retried, ``healthy()`` would stay
    true forever (budget > 0, alive == 0) and a batch with
    outstanding chunks would loop instead of raising PoolBroken.
    """
    import multiprocessing as mp

    from repro.core import WorkerSupervisor

    ctx = mp.get_context("fork")
    sup = WorkerSupervisor(ctx, 1, heartbeat_interval=0.02, max_respawns=3)
    attempts = []

    def spawn(slot, incarnation):
        if incarnation >= 1:  # every respawn fails
            attempts.append(incarnation)
            raise OSError("fork: EAGAIN")
        return _FakeProc()

    sup.start(spawn)
    try:
        sup.processes()[0].exitcode = 1
        assert _wait_until(lambda: not sup.healthy())
        assert sup.respawn_budget == 0
        assert len(attempts) == 3  # every budget unit was retried
        assert sup.alive_count() == 0
        assert not sup.can_respawn()
    finally:
        sup.stop()


def test_capacity_fraction_tracks_lifecycle(road_ch):
    """Live workers over the pool's lifecycle, as ``health()`` reports."""
    with PhastPool(road_ch, num_workers=2, force_pool=True) as pool:
        assert pool.health()["workers_alive"] == 2
    assert pool.health()["workers_alive"] == 0
    with PhastPool(road_ch, num_workers=1) as pool:  # serial path
        assert pool.health()["workers_alive"] == 1
        assert pool.health()["serial"] is True


# ---------------------------------------------------------------------------
# Client transport failures


def _listener():
    srv = socket.socket()
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind(("127.0.0.1", 0))
    srv.listen(4)
    return srv, srv.getsockname()[1]


def test_client_read_timeout_names_endpoint():
    srv, port = _listener()
    hold = threading.Event()

    def server():
        conn, _ = srv.accept()
        conn.recv(4096)          # swallow the request, never answer
        hold.wait(5)
        conn.close()

    threading.Thread(target=server, daemon=True).start()
    try:
        with ServerClient("127.0.0.1", port, max_retries=0) as client:
            with pytest.raises(TimeoutError, match=f"127.0.0.1:{port}"):
                client.call("ping", timeout=0.2)
            assert client._sock is None  # desynced stream was dropped
    finally:
        hold.set()
        srv.close()


def test_client_connection_error_names_endpoint():
    srv, port = _listener()

    def server():
        conn, _ = srv.accept()
        conn.close()             # hang up before answering

    threading.Thread(target=server, daemon=True).start()
    try:
        with ServerClient("127.0.0.1", port, max_retries=0) as client:
            with pytest.raises(ConnectionError, match=f"127.0.0.1:{port}"):
                client.call("ping")
    finally:
        srv.close()


def test_client_retries_transient_then_succeeds():
    srv, port = _listener()

    def server():
        conn, _ = srv.accept()
        conn.close()             # first attempt: server "restarts"
        conn, _ = srv.accept()   # retry lands on a healthy connection
        req = protocol.recv_message(conn)
        protocol.send_message(conn, protocol.ok_response(req["id"], pong=True))
        conn.close()

    threading.Thread(target=server, daemon=True).start()
    try:
        with ServerClient("127.0.0.1", port,
                          max_retries=2, backoff_s=0.01) as client:
            assert client.ping() is True
    finally:
        srv.close()


def test_client_never_retries_server_errors():
    srv, port = _listener()
    received = []

    def server():
        conn, _ = srv.accept()
        req = protocol.recv_message(conn)
        received.append(req)
        protocol.send_message(
            conn, protocol.error_response(req["id"], 400, "bad request")
        )
        conn.settimeout(0.5)     # a retry would arrive here
        try:
            more = protocol.recv_message(conn)
            if more is not None:
                received.append(more)
        except (OSError, protocol.ProtocolError):
            pass
        conn.close()

    t = threading.Thread(target=server, daemon=True)
    t.start()
    try:
        with ServerClient("127.0.0.1", port,
                          max_retries=3, backoff_s=0.01) as client:
            with pytest.raises(ServerError, match=r"\[400\]"):
                client.call("ping")
        t.join(5)
        assert len(received) == 1, "ServerError must not be retried"
    finally:
        srv.close()
