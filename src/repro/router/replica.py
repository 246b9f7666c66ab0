"""Replica bookkeeping: state machine, wire link, process manager.

Three concerns, one per class:

:class:`Replica`
    What the router believes about one backend — a small state
    machine fed by periodic ``health`` probes and per-request
    transport outcomes::

        unknown --probe ok--> active
        active  --failure---> suspect --more failures--> down
        down    --probe ok--> warming --ramp elapsed---> active
        any     --hold_out--> draining --readmit--------> warming

    A replica that *restarts* (new pid, or ``uptime_seconds`` moving
    backwards — the generation signal added to the ``health`` op for
    exactly this) re-enters through ``warming`` even if no probe ever
    saw it down: its caches are cold, so the router ramps traffic
    back up instead of slamming it.

:class:`ReplicaLink`
    One multiplexed asyncio connection to one replica.  The router
    rewrites request ids per link, so many client requests ride one
    backend connection concurrently; responses are matched back to
    futures by id.  Unlike the blocking client, a timeout does *not*
    force a reconnect — ids keep the stream aligned, and a late
    response is simply dropped.

:class:`ReplicaManager`
    Synchronous process control: spawn ``repro serve`` subprocesses
    over on-disk artifacts (parsing the bound address from the serve
    banner, so ``--port 0`` works), adopt already-running endpoints,
    and drive rolling drain/restart for zero-downtime deploys.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..server.client import ServerClient

__all__ = ["Replica", "ReplicaLink", "ReplicaManager", "ManagedProcess"]

# Replica states.
UNKNOWN = "unknown"
ACTIVE = "active"
WARMING = "warming"
SUSPECT = "suspect"
DOWN = "down"
DRAINING = "draining"

#: States the router may send work to.
ROUTABLE = (ACTIVE, WARMING, SUSPECT)


class ReplicaLink:
    """A multiplexed length-prefixed-JSON connection to one replica."""

    def __init__(self, host: str, port: int, *,
                 connect_timeout: float = 5.0) -> None:
        self.host = host
        self.port = int(port)
        self.connect_timeout = float(connect_timeout)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._connect_lock: asyncio.Lock | None = None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self._writer is not None and not self._writer.is_closing()

    async def _ensure_connected(self) -> None:
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
        async with self._connect_lock:
            if self.connected:
                return
            from ..server import protocol  # local import keeps module load light

            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.connect_timeout,
            )
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader, self._writer = reader, writer
            self._read_task = asyncio.get_running_loop().create_task(
                self._read_loop(reader)
            )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        from ..server import protocol

        try:
            while True:
                msg = await protocol.read_message(reader)
                if msg is None:
                    break
                fut = self._pending.pop(msg.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(msg)
        except (protocol.ProtocolError, ConnectionError, OSError):
            pass
        finally:
            await self.close()

    async def request(self, msg: dict, timeout: float) -> dict:
        """Forward ``msg`` (id rewritten) and await the matching response.

        Raises ``ConnectionError`` on transport failure and
        ``TimeoutError`` when no response lands within ``timeout``
        seconds; the caller decides about failover.
        """
        try:
            await self._ensure_connected()
        except (OSError, asyncio.TimeoutError) as exc:
            raise ConnectionError(
                f"cannot connect to replica {self.endpoint}: {exc}"
            ) from exc
        self._next_id += 1
        link_id = self._next_id
        fut = asyncio.get_running_loop().create_future()
        self._pending[link_id] = fut
        try:
            from ..server import protocol

            await protocol.write_message(self._writer, {**msg, "id": link_id})
        except (ConnectionError, OSError) as exc:
            self._pending.pop(link_id, None)
            await self.close()
            raise ConnectionError(
                f"lost replica {self.endpoint} while sending: {exc}"
            ) from exc
        try:
            return await asyncio.wait_for(fut, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(link_id, None)
            raise TimeoutError(
                f"no response from replica {self.endpoint} within {timeout}s"
            ) from None
        except asyncio.CancelledError:
            self._pending.pop(link_id, None)
            raise

    async def close(self) -> None:
        """Drop the connection; pending requests fail with ConnectionError."""
        writer, self._writer, self._reader = self._writer, None, None
        task, self._read_task = self._read_task, None
        pending, self._pending = self._pending, {}
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(
                    ConnectionError(f"replica {self.endpoint} connection lost")
                )
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if task is not None and task is not asyncio.current_task():
            task.cancel()


class Replica:
    """One backend's identity, health state, and routing counters."""

    def __init__(self, name: str, host: str, port: int, *,
                 down_after: int = 3, warmup_s: float = 2.0,
                 on_transition=None) -> None:
        self.name = name
        self.host = host
        self.port = int(port)
        self.link = ReplicaLink(host, port)
        self.down_after = int(down_after)
        self.warmup_s = float(warmup_s)
        self._on_transition = on_transition
        self.state = UNKNOWN
        self.generation = 0
        self.inflight = 0
        self.consecutive_failures = 0
        self.pid: int | None = None
        self.last_uptime: float | None = None
        self._warm_started = 0.0
        self._warm_seen = 0
        self._warm_admitted = 0

    @property
    def routable(self) -> bool:
        return self.state in ROUTABLE

    def _transition(self, new: str) -> None:
        if new == self.state:
            return
        old, self.state = self.state, new
        if self._on_transition is not None:
            self._on_transition(self.name, old, new)

    # -- signals -----------------------------------------------------------

    def apply_probe(self, health: dict | None) -> None:
        """Digest one ``health`` probe result (``None`` = probe failed)."""
        if self.state == DRAINING:
            return  # held out on purpose; probes don't re-admit
        if health is None or not health.get("ready", False):
            self.record_failure()
            return
        self.consecutive_failures = 0
        restarted = self._detect_restart(health)
        if restarted:
            self.generation += 1
            self._start_warming()
        elif self.state == DOWN:
            self._start_warming()
        elif self.state == WARMING:
            if time.monotonic() - self._warm_started >= self.warmup_s:
                self._transition(ACTIVE)
        else:  # UNKNOWN, SUSPECT, ACTIVE
            self._transition(ACTIVE)

    def _detect_restart(self, health: dict) -> bool:
        """Generation change: new pid, or uptime that moved backwards."""
        pid = health.get("pid")
        uptime = health.get("uptime_seconds")
        restarted = False
        if pid is not None:
            if self.pid is not None and pid != self.pid:
                restarted = True
            self.pid = pid
        if isinstance(uptime, (int, float)):
            if (self.last_uptime is not None
                    and uptime < self.last_uptime - 0.25):
                restarted = True
            self.last_uptime = float(uptime)
        return restarted

    def record_failure(self) -> None:
        """A probe failure or per-request transport error."""
        if self.state == DRAINING:
            return
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.down_after:
            self._transition(DOWN)
        elif self.state in (ACTIVE, WARMING, SUSPECT):
            self._transition(SUSPECT)
        elif self.state == UNKNOWN:
            self._transition(DOWN)

    def record_success(self) -> None:
        """A forwarded request answered (any envelope): transport is fine."""
        self.consecutive_failures = 0
        if self.state == SUSPECT:
            self._transition(ACTIVE)

    # -- warm-up ramp ------------------------------------------------------

    def _start_warming(self) -> None:
        self._warm_started = time.monotonic()
        self._warm_seen = 0
        self._warm_admitted = 0
        self._transition(WARMING)

    def warm_fraction(self) -> float:
        """How much of its fair traffic share this replica should get."""
        if self.state != WARMING:
            return 1.0
        elapsed = time.monotonic() - self._warm_started
        if elapsed >= self.warmup_s:
            self._transition(ACTIVE)
            return 1.0
        # Never ramp from exactly zero — a cold replica that gets no
        # traffic also re-warms no caches.
        return max(0.1, elapsed / self.warmup_s)

    def admit_warm(self) -> bool:
        """Deterministic thinning toward :meth:`warm_fraction`."""
        fraction = self.warm_fraction()
        if fraction >= 1.0:
            return True
        self._warm_seen += 1
        if (self._warm_admitted + 1) <= fraction * self._warm_seen:
            self._warm_admitted += 1
            return True
        return False

    # -- drain / readmit ---------------------------------------------------

    def hold_out(self) -> None:
        """Remove from rotation (state ``draining``); inflight may remain."""
        self._transition(DRAINING)

    def readmit(self) -> None:
        """Return to rotation through the warm-up ramp."""
        if self.state == DRAINING:
            self.consecutive_failures = 0
            self._start_warming()

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "endpoint": f"{self.host}:{self.port}",
            "state": self.state,
            "generation": self.generation,
            "inflight": self.inflight,
            "consecutive_failures": self.consecutive_failures,
            "pid": self.pid,
            "uptime_seconds": self.last_uptime,
        }


# ---------------------------------------------------------------------------
# Process management


_BANNER = re.compile(r"\bon ([0-9A-Za-z_.\-]+):(\d+)\b")


@dataclass
class ManagedProcess:
    """One replica the manager knows about (spawned or adopted)."""

    name: str
    host: str
    port: int
    proc: subprocess.Popen | None = None
    cmd: list[str] = field(default_factory=list)
    env: dict | None = None
    tail: deque = field(default_factory=lambda: deque(maxlen=50))
    #: The thread draining ``proc``'s stdout after the serve banner; it
    #: closes the pipe at EOF.
    drain: threading.Thread | None = None

    @property
    def spawned(self) -> bool:
        return self.cmd != []

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None


class ReplicaManager:
    """Spawn/adopt ``repro serve`` replicas; drive rolling restarts.

    Synchronous on purpose: process control happens from the CLI main
    thread, tests, and benchmark harnesses — never from the router's
    event loop.  The router is informed of topology through the
    control object passed to :meth:`rolling_restart` (a
    :class:`~repro.router.service.RouterHandle`).
    """

    def __init__(self, *, python: str | None = None) -> None:
        self.python = python or sys.executable
        self.replicas: dict[str, ManagedProcess] = {}

    def names(self) -> list[str]:
        return list(self.replicas)

    def spawned_names(self) -> list[str]:
        return [n for n, m in self.replicas.items() if m.spawned]

    # -- topology ----------------------------------------------------------

    def adopt(self, host: str, port: int) -> str:
        """Register an already-running replica (never stopped by us)."""
        name = f"{host}:{int(port)}"
        self.replicas[name] = ManagedProcess(name=name, host=host,
                                             port=int(port))
        return name

    def spawn(self, graph: str, hierarchy: str, *, host: str = "127.0.0.1",
              port: int = 0, extra_args: tuple = (),
              ready_timeout: float = 120.0) -> str:
        """Start one ``repro serve`` replica and wait until it is ready.

        ``port=0`` binds an ephemeral port; the bound address is parsed
        from the serve banner.  Readiness means the ``health`` op
        reports ``ready`` — a listening socket alone still races the
        engine warm-up.
        """
        cmd = [
            self.python, "-m", "repro", "serve", str(graph), str(hierarchy),
            "--host", host, "--port", str(int(port)),
        ]
        cmd.extend(str(a) for a in extra_args)
        env = dict(os.environ)
        # The child must import repro however the parent did (pytest
        # manipulates sys.path without touching PYTHONPATH).
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        parts = [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        managed = ManagedProcess(name="", host=host, port=0, proc=proc,
                                 cmd=cmd, env=env)
        bound_host, bound_port = self._await_banner(managed, ready_timeout)
        managed.host, managed.port = bound_host, bound_port
        managed.name = f"{bound_host}:{bound_port}"
        # Pin the resolved port so a restart comes back at the same
        # address (the router's ring is keyed by it).
        managed.cmd = list(cmd)
        port_idx = managed.cmd.index("--port") + 1
        managed.cmd[port_idx] = str(bound_port)
        self.replicas[managed.name] = managed
        try:
            self._await_ready(managed, ready_timeout)
        except Exception:
            self.stop(managed.name, wait_timeout=10.0)
            del self.replicas[managed.name]
            raise
        return managed.name

    def _await_banner(self, managed: ManagedProcess,
                      timeout: float) -> tuple[str, int]:
        """Read serve's stdout until the 'serving … on host:port' line,
        then hand the pipe to a drain thread.  On failure the process is
        killed and its pipe closed."""
        deadline = time.monotonic() + timeout
        proc = managed.proc
        try:
            while time.monotonic() < deadline:
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        "replica exited before binding: "
                        + " | ".join(managed.tail)
                    )
                managed.tail.append(line.rstrip())
                match = _BANNER.search(line)
                if match:
                    self._start_drain_thread(managed)
                    return match.group(1), int(match.group(2))
            raise TimeoutError(
                f"replica produced no serve banner within {timeout}s"
            )
        except BaseException:
            self._kill(proc)
            proc.stdout.close()
            raise

    @staticmethod
    def _start_drain_thread(managed: ManagedProcess) -> None:
        """Keep consuming stdout so a chatty replica can't block on the
        pipe, and close it at EOF.  The thread reads the pipe of the
        process it was started for, which a restart replaces."""
        stream = managed.proc.stdout

        def drain() -> None:
            with stream:
                for line in stream:
                    managed.tail.append(line.rstrip())

        managed.drain = threading.Thread(
            target=drain, daemon=True, name=f"replica-drain-{managed.port}")
        managed.drain.start()

    def _await_ready(self, managed: ManagedProcess, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with ServerClient(managed.host, managed.port,
                          connect_retry_s=timeout, max_retries=0) as probe:
            while True:
                try:
                    if probe.health().get("ready"):
                        return
                except (ConnectionError, OSError, RuntimeError):
                    pass
                if not managed.alive:
                    raise RuntimeError(
                        f"replica {managed.name} died during warm-up: "
                        + " | ".join(managed.tail)
                    )
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"replica {managed.name} not ready within {timeout}s"
                    )
                time.sleep(0.05)

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _kill(proc: subprocess.Popen) -> None:
        try:
            proc.kill()
            proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass

    def stop(self, name: str, *, sig: int = signal.SIGTERM,
             wait_timeout: float = 60.0) -> None:
        """Signal a spawned replica and reap it (idempotent).

        SIGTERM triggers the replica's graceful drain; SIGKILL is the
        chaos path (and the escalation when the drain hangs).
        """
        managed = self.replicas[name]
        if not managed.spawned:
            raise ValueError(f"replica {name} was adopted, not spawned")
        proc = managed.proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                proc.send_signal(sig)
            except OSError:
                pass
            try:
                proc.wait(timeout=wait_timeout)
            except subprocess.TimeoutExpired:
                self._kill(proc)
        else:
            proc.wait()

    def restart(self, name: str, *, ready_timeout: float = 120.0) -> None:
        """Start a fresh process for a stopped spawned replica (same port)."""
        managed = self.replicas[name]
        if not managed.spawned:
            raise ValueError(f"replica {name} was adopted, not spawned")
        if managed.alive:
            raise RuntimeError(f"replica {name} is still running")
        managed.proc = subprocess.Popen(
            managed.cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=managed.env,
        )
        managed.tail.clear()
        self._await_banner(managed, ready_timeout)
        self._await_ready(managed, ready_timeout)

    def stop_all(self, *, sig: int = signal.SIGTERM,
                 wait_timeout: float = 60.0) -> None:
        """Stop every spawned replica (signal all, then reap all)."""
        spawned = [m for m in self.replicas.values()
                   if m.spawned and m.proc is not None]
        for managed in spawned:
            if managed.proc.poll() is None:
                try:
                    managed.proc.send_signal(sig)
                except OSError:
                    pass
        for managed in spawned:
            try:
                managed.proc.wait(timeout=wait_timeout)
            except subprocess.TimeoutExpired:
                self._kill(managed.proc)

    # -- zero-downtime deploys ---------------------------------------------

    def rolling_restart(self, router_ctl=None, *,
                        ready_timeout: float = 120.0) -> list[str]:
        """Drain, restart, and re-admit each spawned replica in turn.

        ``router_ctl`` must expose blocking ``hold_out(name)`` /
        ``readmit(name)`` (a :class:`RouterHandle` does).  ``hold_out``
        returns only after the router has stopped sending the replica
        traffic *and* its in-flight requests have finished, so the
        subsequent SIGTERM drain finds an idle replica — zero lost
        requests by construction.
        """
        restarted = []
        for name in self.spawned_names():
            if router_ctl is not None:
                router_ctl.hold_out(name)
            try:
                self.stop(name)
                self.restart(name, ready_timeout=ready_timeout)
            finally:
                if router_ctl is not None:
                    router_ctl.readmit(name)
            restarted.append(name)
        return restarted
