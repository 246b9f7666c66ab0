"""The asyncio front-door router.

One :class:`PhastRouter` process owns the public TCP port.  It speaks
the same length-prefixed JSON protocol as :class:`PhastService` on
both sides — clients connect to it exactly as they would to a single
replica, and it holds one multiplexed connection per replica.

Request flow for the five work ops::

    client frame ──> affinity key ──> ring preference ──> first
    routable replica (warm-up thinning applied) ──> forward with a
    rewritten id ──> response, id restored ──> client

Failover is per request: a transport error or a retryable error
envelope (429 shed, 500 internal error, 503 draining) sends the
request to the next replica on the *same key's* ring order — every
work op is a pure read over artifacts all replicas share, so a retry
can only repeat the answer.  Non-retryable envelopes (400 bad
request, 504 deadline) pass through untouched.

Health is double-sourced, exactly the PR 4 signals: a periodic
``health`` probe per replica (liveness, readiness, and the
generation fields — pid + ``uptime_seconds`` — that expose restarts)
plus per-request transport accounting.  A replica that fails
``down_after`` times in a row is held out; one that comes back enters
through a warm-up ramp so its cold caches are not slammed at full
fair share.

Admin ops are answered at the router: ``ping`` locally, ``health`` /
``metrics`` with router-level aggregates (per-replica state and rps,
affinity hit rate, spill rate, transitions), ``info`` proxied from a
live replica and annotated with the topology — so ``ServerClient``
and ``repro client`` work unmodified.  Connections, frames and the
drain are the shared :class:`~repro.server.listener.FrameServer`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from ..server import protocol
from ..server.listener import FrameHandle, FrameServer, run_in_thread
from .metrics import RouterMetrics
from .replica import ACTIVE, DRAINING, WARMING, Replica
from .ring import HashRing

__all__ = ["RouterConfig", "PhastRouter", "RouterHandle", "route_in_thread"]

#: Ops forwarded to replicas — derived from the protocol's declarative
#: op registry, so the router can never drift from the service.
WORK_OPS = protocol.WORK_OPS
#: Ops answered at the router.
ADMIN_OPS = protocol.ADMIN_OPS
#: Ops broadcast to every replica with rolling semantics (swap_metric).
CONTROL_OPS = protocol.CONTROL_OPS

#: Error codes worth retrying on a different replica: the home shed
#: (429), failed internally (500), or is draining (503).
#: 400 and 504 are the request's own fault and pass through.
RETRYABLE_CODES = (protocol.OVERLOADED, protocol.INTERNAL,
                   protocol.UNAVAILABLE)

#: Per-probe response bound.
PROBE_TIMEOUT_MS = 2_000.0
#: Router-side wait for a forwarded request that carries no deadline of
#: its own.
FORWARD_TIMEOUT_MS = 30_000.0
#: Extra wait on top of a request's own ``timeout_ms`` — lets the
#: replica's 504 arrive and pass through instead of racing it.
FORWARD_GRACE_MS = 1_000.0
#: Distinct replicas tried per request before giving up.
MAX_ATTEMPTS = 3
#: Virtual nodes per replica on the hash ring.
VNODES = 64


@dataclass
class RouterConfig:
    """Tunables of one router instance."""

    host: str = "127.0.0.1"
    port: int = 7170
    #: Health-probe period per replica.
    probe_interval_ms: float = 200.0
    #: Consecutive failures (probe or per-request) before ``down``.
    down_after: int = 3
    #: Ramp duration for a replica re-entering rotation.
    warmup_ms: float = 2_000.0

    def __post_init__(self) -> None:
        if self.probe_interval_ms <= 0:
            raise ValueError("probe_interval_ms must be > 0")
        if self.down_after < 1:
            raise ValueError("down_after must be >= 1")
        if self.warmup_ms < 0:
            raise ValueError("warmup_ms must be >= 0")


class PhastRouter(FrameServer):
    """A front door fanning one public port out to N replicas."""

    def __init__(self, config: RouterConfig | None = None) -> None:
        super().__init__(config or RouterConfig(), RouterMetrics())
        self.ring = HashRing(vnodes=VNODES)
        self.replicas: dict[str, Replica] = {}

    # -- topology ----------------------------------------------------------

    def add_replica(self, host: str, port: int, *,
                    name: str | None = None) -> str:
        """Register a replica endpoint (before or after ``start``)."""
        name = name or f"{host}:{int(port)}"
        if name in self.replicas:
            raise ValueError(f"replica {name} already registered")
        self.replicas[name] = Replica(
            name, host, int(port),
            down_after=self.config.down_after,
            warmup_s=self.config.warmup_ms / 1e3,
            on_transition=self.metrics.record_transition,
        )
        self.ring.add(name)
        return name

    async def remove_replica(self, name: str) -> None:
        """Drop a replica from the topology entirely."""
        rep = self.replicas.pop(name)
        self.ring.remove(name)
        await rep.link.close()

    async def hold_out(self, name: str, *, timeout: float = 60.0) -> None:
        """Take a replica out of rotation and wait out its in-flight work.

        Returns only when the router holds zero requests against the
        replica — the point at which a SIGTERM drain of the replica
        cannot lose a routed request.
        """
        rep = self.replicas[name]
        rep.hold_out()
        deadline = time.monotonic() + timeout
        while rep.inflight > 0:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"replica {name} still has {rep.inflight} in-flight "
                    f"requests after {timeout}s"
                )
            await asyncio.sleep(0.01)

    async def readmit(self, name: str) -> None:
        """Return a held-out replica to rotation through the warm ramp."""
        rep = self.replicas[name]
        await rep.link.close()  # the old process's connection is stale
        rep.readmit()
        await self._probe_one(rep)

    # -- lifecycle (the FrameServer steps) ---------------------------------

    async def _prepare(self) -> None:
        """Probe every replica once before binding."""
        if not self.replicas:
            raise RuntimeError("router has no replicas to route to")
        await self._probe_all()

    async def _release(self) -> None:
        for rep in self.replicas.values():
            await rep.link.close()

    # -- health probing ----------------------------------------------------

    async def _monitor(self) -> None:
        """Re-probe every replica each ``probe_interval_ms``."""
        period = self.config.probe_interval_ms / 1e3
        while True:
            await asyncio.sleep(period)
            await self._probe_all()

    async def _probe_all(self) -> None:
        reps = list(self.replicas.values())
        if reps:
            await asyncio.gather(*(self._probe_one(r) for r in reps))

    async def _probe_one(self, rep: Replica) -> None:
        if rep.state == DRAINING:
            return
        try:
            resp = await rep.link.request(
                {"op": "health"}, PROBE_TIMEOUT_MS / 1e3
            )
            health = resp if resp.get("ok") else None
        except (ConnectionError, TimeoutError, OSError):
            health = None
        rep.apply_probe(health)

    # -- request processing ------------------------------------------------

    def _answer(self, req_id, op: str, msg: dict, conn) -> None:
        # Answers await replicas, so each frame runs in its own task;
        # a dropped connection cancels it.
        task = asyncio.get_running_loop().create_task(
            self._respond(req_id, op, msg, conn)
        )
        conn.owe(task)
        task.add_done_callback(conn.settle)

    async def _respond(self, req_id, op: str, msg: dict, conn) -> None:
        conn.send(await self._process(req_id, op, msg))

    async def _process(self, req_id, op: str, msg: dict) -> dict:
        if op == "ping":
            return protocol.ok_response(req_id, pong=True)
        if op == "health":
            return protocol.ok_response(req_id, **self._health())
        if op == "metrics":
            return protocol.ok_response(req_id, metrics=self.metrics.snapshot(
                replicas={n: r.snapshot() for n, r in self.replicas.items()}
            ))
        if op == "info":
            return await self._info(req_id)
        if op not in WORK_OPS and op not in CONTROL_OPS:
            return self._error(
                req_id, protocol.BAD_REQUEST,
                f"unknown op {op!r}; known: "
                f"{WORK_OPS + CONTROL_OPS + ADMIN_OPS}",
            )
        if self._draining:
            return self._error(req_id, protocol.UNAVAILABLE,
                               "router is draining")
        try:
            if op in CONTROL_OPS:
                return await self._broadcast_control(req_id, op, msg)
            return await self._route_work(req_id, op, msg)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # router bug — never kill the connection
            return self._error(req_id, protocol.INTERNAL,
                               f"router error: {type(exc).__name__}: {exc}")

    def _health(self) -> dict:
        replicas = {n: r.snapshot() for n, r in self.replicas.items()}
        routable = [r for r in self.replicas.values() if r.routable]
        if self._draining:
            status = "draining"
        elif not routable:
            status = "down"
        elif all(r.state == ACTIVE for r in self.replicas.values()):
            status = "ok"
        else:
            status = "degraded"
        return {
            "status": status,
            "ready": not self._draining and bool(routable),
            "router": True,
            "replica_count": len(self.replicas),
            "routable": len(routable),
            "replicas": replicas,
        }

    async def _info(self, req_id) -> dict:
        """Proxy ``info`` from a live replica, annotated with topology."""
        last_exc: Exception | None = None
        for rep in self.replicas.values():
            if not rep.routable:
                continue
            try:
                resp = await rep.link.request(
                    {"op": "info"}, PROBE_TIMEOUT_MS / 1e3
                )
            except (ConnectionError, TimeoutError) as exc:
                last_exc = exc
                continue
            resp["id"] = req_id
            resp["router"] = {
                "replicas": len(self.replicas),
                "routable": sum(r.routable for r in self.replicas.values()),
                "via": rep.name,
            }
            return resp
        return self._error(
            req_id, protocol.UNAVAILABLE,
            f"no replica answered info: {last_exc}",
        )

    # -- routing -----------------------------------------------------------

    @staticmethod
    def affinity_key(op: str, msg: dict) -> str:
        """The cache-locality key a request should stick to.

        ``matrix`` keys on the (deduplicated, sorted) target set —
        the replica-side :class:`SelectionCache` is keyed the same
        way, so repeat target sets keep hitting their warm selection.
        Everything else keys on the source vertex, which keeps each
        origin's requests on one replica.
        """
        if op == "matrix":
            targets = msg.get("targets")
            if isinstance(targets, list):
                return "matrix:" + ",".join(
                    str(t) for t in sorted(set(map(str, targets)))
                )
            return f"matrix:{targets!r}"
        return f"src:{msg.get('source')!r}"

    def _forward_timeout(self, msg: dict) -> float:
        timeout_ms = msg.get("timeout_ms")
        if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float)):
            return FORWARD_TIMEOUT_MS / 1e3
        return (float(timeout_ms) + FORWARD_GRACE_MS) / 1e3

    async def _route_work(self, req_id, op: str, msg: dict) -> dict:
        key = self.affinity_key(op, msg)
        preference = self.ring.preference(key)
        home = preference[0] if preference else None
        timeout = self._forward_timeout(msg)
        attempts = 0
        warm_deferred = False
        last_error: dict | None = None

        def account(routed_to: str | None) -> None:
            self.metrics.record_routing(
                hit=routed_to is not None and routed_to == home,
                spilled=routed_to != home,
                failovers=max(0, attempts - 1),
                warm_deferred=warm_deferred,
            )

        for rank, name in enumerate(preference):
            rep = self.replicas.get(name)
            if rep is None or not rep.routable:
                continue
            if attempts >= MAX_ATTEMPTS:
                break
            if rep.state == WARMING and not rep.admit_warm():
                # Thin a warming replica's share only when a warmer
                # one exists to take the request instead.
                others = (
                    r for o, r in self.replicas.items()
                    if o != name and o in preference[rank + 1:]
                )
                if any(r.routable and r.state != WARMING for r in others):
                    warm_deferred = True
                    continue
            attempts += 1
            rep.inflight += 1
            self.metrics.record_forward(name)
            try:
                resp = await rep.link.request(msg, timeout)
            except (ConnectionError, TimeoutError) as exc:
                rep.record_failure()
                self.metrics.record_replica_error(name)
                last_error = protocol.error_response(
                    req_id, protocol.UNAVAILABLE,
                    f"replica {name} failed: {exc}",
                )
                continue
            finally:
                rep.inflight -= 1
            rep.record_success()
            resp["id"] = req_id
            if resp.get("ok"):
                account(name)
                return resp
            code = (resp.get("error") or {}).get("code")
            if code in RETRYABLE_CODES:
                self.metrics.record_replica_error(name)
                last_error = resp
                continue
            # 400 / 504: the request's own outcome — pass through.
            account(name)
            self.metrics.record_error(code or protocol.INTERNAL)
            return resp

        account(None)
        if last_error is not None:
            code = (last_error.get("error") or {}).get("code", protocol.UNAVAILABLE)
            self.metrics.record_error(code)
            return last_error
        return self._error(
            req_id, protocol.UNAVAILABLE,
            f"no routable replica for {op} "
            f"({len(self.replicas)} configured, 0 accepting)",
        )

    async def _broadcast_control(self, req_id, op: str, msg: dict) -> dict:
        """Apply a control op (swap_metric) to every replica, rolling.

        Replicas are updated **one at a time, sequentially**: while one
        replica customizes and swaps, it and the others keep answering
        on whatever metric they hold, so the fleet never stops serving
        and every individual answer is single-metric.  Cross-replica skew
        during the roll is inherent to rolling updates; affinity
        routing keeps a client's repeat keys pinned to one replica,
        which bounds how visible the skew is.

        The response reports per-replica outcomes.  ``ok`` is true only
        when every replica (including ones currently out of rotation —
        a held-out replica would otherwise re-enter with stale weights)
        accepted the op.  On partial failure the operator re-issues the
        swap (idempotent: a replica already on the new weights just
        swaps to them again) or rolls back by swapping the old weights.
        """
        timeout = self._forward_timeout(msg)
        results: dict[str, dict] = {}
        failed = 0
        for name, rep in list(self.replicas.items()):
            try:
                resp = await rep.link.request(msg, timeout)
            except (ConnectionError, TimeoutError, OSError) as exc:
                rep.record_failure()
                self.metrics.record_replica_error(name)
                failed += 1
                results[name] = {
                    "ok": False,
                    "error": {"code": protocol.UNAVAILABLE,
                              "message": f"replica {name} failed: {exc}"},
                }
                continue
            rep.record_success()
            if not resp.get("ok"):
                failed += 1
                self.metrics.record_replica_error(name)
            results[name] = {
                k: v for k, v in resp.items() if k not in ("id",)
            }
        if failed or not results:
            return self._error(
                req_id, protocol.UNAVAILABLE,
                f"{op} failed on {failed} of {len(results)} replicas: "
                + repr({n: r.get("error") for n, r in results.items()
                        if not r.get("ok")}),
            )
        return protocol.ok_response(req_id, replicas=results)


# ---------------------------------------------------------------------------
# Thread-hosted routing (tests, benchmarks, notebooks)


class RouterHandle(FrameHandle):
    """A router running on an event loop in another thread.

    Besides the lifecycle of :class:`~repro.server.listener.FrameHandle`,
    it exposes blocking ``hold_out`` / ``readmit`` wrappers so
    synchronous code (a :class:`ReplicaManager` doing a rolling
    restart, a test) can drive the router's rotation from outside its
    loop.
    """

    @property
    def router(self) -> PhastRouter:
        return self.server

    def hold_out(self, name: str, *, timeout: float = 60.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.hold_out(name, timeout=timeout), self.loop
        ).result(timeout + 10.0)

    def readmit(self, name: str, *, timeout: float = 60.0) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.readmit(name), self.loop
        ).result(timeout)


def route_in_thread(
    router: PhastRouter, *, host: str = "127.0.0.1", port: int = 0,
    start_timeout: float = 60.0,
) -> RouterHandle:
    """Start ``router`` on a fresh event loop in a daemon thread.

    ``port=0`` binds an ephemeral port; read it back from
    ``handle.port``.  The thread exits once the router has drained.
    """
    return run_in_thread(router, RouterHandle, host=host, port=port,
                         start_timeout=start_timeout, name="phast-router")
