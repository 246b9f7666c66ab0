"""Query-service throughput — dynamic micro-batching on vs off.

The server's scheduler coalesces concurrent sweep-shaped requests
(tree / one-to-many / isochrone) into one multi-source PHAST sweep.
A served batch of k requests costs about ``C(k) = alpha + beta * k``,
so per-request service time falls from ``alpha + beta`` toward
``beta`` as batches fill — the same amortization an inference server
gets from batching forwards, and as large as ``alpha / beta``, which
the ``C(k)`` experiment below measures.

On top of lane amortization the scheduler coalesces requests that
share a source into one lane (singleflight), so concurrent requests
from one origin pay one upward search and one lane.  That is what a
serving workload actually exercises: production one-to-many and
isochrone traffic concentrates on hot origins (a dispatch service's
depots, a map's popular tiles), which is the workload modelled here —
every request draws its source from a fixed set of
``REPRO_BENCH_SERVER_DEPOTS`` depots.

This bench measures it end to end, over the wire: a closed-loop load
generator sweeps the number of client threads against two
otherwise-identical in-process servers, one micro-batching and one
with ``batch_max=1, max_wait_ms=0`` (strict dispatch-one, the
ablation, so the comparison isolates batching).
The workload is one-to-many dominated — the request shape the
batching exists for.  Client-side latency histograms give p50/p99 per
load level; server metrics give realized batch sizes and lanes.

Each client keeps a small window of requests in flight on its one
connection (the protocol pipelines; responses carry ids and may come
back out of order), so offered load is ``clients x pipeline`` — a
closed-loop generator with depth-1 windows cannot offer more
concurrency than it has threads, which on a single-CPU host would
starve the batcher of company no matter the arrival policy.

A second experiment measures ``C(k)``, the cost of one served batch
of ``k`` tree requests for k = 1, 2, 3, 4, 8, 16, in process and on the
path the server runs on its event loop: the engine's k-lane
``PhastEngine.trees(sources, out=)`` call into a reused buffer (each
lane's upward search, the sweep and the scatter into original IDs —
the server runs no search cache, so every lane pays its search) and
the batch's answer frames, all ``k`` written by one
:func:`protocol.sweep_frames` call and copied out as the one write of
a single connection.  A least-squares line through the medians gives
``C(k) = alpha + beta * k``.

Two further experiments exercise the front-door router
(``repro.router``).  The *router sweep* reruns the closed-loop load
against a router fronting 1 and then 2 in-thread replicas: the
1-replica point prices the router hop itself (same workload straight
at a replica vs through the front door), the 2-replica point shows
the fan-out plus the affinity hit rate the consistent-hash routing
sustains.  The *router availability* run is the acceptance scenario:
two spawned ``repro serve`` subprocess replicas behind the router,
steady load with every answer checked against a precomputed
reference, one replica SIGKILLed a third of the way in and
restarted/readmitted two thirds in — recorded: availability (must be
>= 99%), wrong answers (must be zero), and per-phase tails.

Environment knobs: ``REPRO_BENCH_SERVER_CLIENTS`` (comma-separated
thread counts, default ``1,2,4,8``), ``REPRO_BENCH_SERVER_PIPELINE``
(in-flight requests per client, default 8),
``REPRO_BENCH_SERVER_DEPOTS`` (hot-origin set size, default 8),
``REPRO_BENCH_SERVER_SECONDS`` (measurement window per point, default
2.0), ``REPRO_BENCH_ROUTER_REPLICAS`` (comma-separated replica
counts for the router sweep, default ``1,2``), ``REPRO_BENCH_SCALE``
(instance size, shared with the other benches).

Results go to ``BENCH_server.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from common import fmt, load_instance, print_table
from repro.core import PhastEngine
from repro.graph import save_graph, save_hierarchy
from repro.router import PhastRouter, ReplicaManager, RouterConfig, route_in_thread
from repro.server import PhastService, ServerClient, ServerConfig, serve_in_thread
from repro.server import protocol
from repro.utils import LatencyHistogram
from repro.utils.hotloop import bulk_compute

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"

DEFAULT_CLIENTS = "1,2,4,8"
DEFAULT_PIPELINE = 8
DEFAULT_DEPOTS = 8
DEFAULT_SECONDS = 2.0
BATCH_MAX = 16
MAX_WAIT_MS = 3.0
TARGETS_PER_REQUEST = 8
BATCH_COST_KS = (1, 2, 3, 4, 8, 16)
BATCH_COST_REPS = 200


def _client_loads() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_SERVER_CLIENTS", "").strip()
    return [int(x) for x in (raw or DEFAULT_CLIENTS).split(",")]


def _pipeline_depth() -> int:
    raw = os.environ.get("REPRO_BENCH_SERVER_PIPELINE", "").strip()
    return int(raw) if raw else DEFAULT_PIPELINE


def _depot_count() -> int:
    raw = os.environ.get("REPRO_BENCH_SERVER_DEPOTS", "").strip()
    return int(raw) if raw else DEFAULT_DEPOTS


def _measure_seconds() -> float:
    raw = os.environ.get("REPRO_BENCH_SERVER_SECONDS", "").strip()
    return float(raw) if raw else DEFAULT_SECONDS


def _batch_cost(ch, n: int) -> dict:
    """``C(k)`` for one served batch of ``k`` tree requests.

    Each rep draws ``k`` fresh sources, runs the engine's ``trees``
    call into the first ``k`` rows of a reused ``(BATCH_MAX, n)``
    buffer, as the server does (search + sweep + scatter), and then
    writes the batch's ``k`` answer frames as the server does (one
    :func:`protocol.sweep_frames` call, the frames copied out as one
    connection's write), timed apart.  Reported per ``k``: the medians
    of both parts, their sum, and the sum over ``k`` (cost per
    request).
    """
    engine = PhastEngine(ch)
    buf = np.empty((BATCH_MAX, n), dtype=np.int64)
    rng = np.random.default_rng(11)
    points = []
    engine.trees([0], out=buf[:1])  # lazy buffers
    with bulk_compute():
        for k in BATCH_COST_KS:
            trees_s, finish_s = [], []
            for _ in range(BATCH_COST_REPS):
                sources = rng.choice(n, size=k, replace=False).tolist()
                t0 = time.perf_counter()
                rows = engine.trees(sources, out=buf[:k])
                t1 = time.perf_counter()
                frames, _ = protocol.sweep_frames(
                    rows, [(i, "tree", None, i) for i in range(k)])
                bytes(frames)
                t2 = time.perf_counter()
                trees_s.append(t1 - t0)
                finish_s.append(t2 - t1)
            trees_ms = float(np.median(trees_s)) * 1e3
            finish_ms = float(np.median(finish_s)) * 1e3
            points.append({
                "k": k,
                "search_sweep_ms": round(trees_ms, 4),
                "finalize_encode_ms": round(finish_ms, 4),
                "batch_ms": round(trees_ms + finish_ms, 4),
                "per_request_ms": round((trees_ms + finish_ms) / k, 4),
            })
    ks = np.array([p["k"] for p in points], dtype=float)
    beta, alpha = np.polyfit(ks, [p["batch_ms"] for p in points], 1)
    return {
        "what": "one served batch of k tree requests, in process: "
                "PhastEngine.trees into a reused buffer (search, sweep, "
                "scatter; no search cache) + the batch's answer frames "
                "(one sweep_frames call, copied out as one write)",
        "reps_per_k": BATCH_COST_REPS,
        "points": points,
        "alpha_ms": round(float(alpha), 4),
        "beta_ms": round(float(beta), 4),
        "alpha_over_beta": round(float(alpha / beta), 3),
    }


def _router_replica_counts() -> list[int]:
    raw = os.environ.get("REPRO_BENCH_ROUTER_REPLICAS", "").strip()
    return [int(x) for x in (raw or "1,2").split(",")]


def _drive(handle, n: int, depots: list[int], threads: int, seconds: float,
           pipeline: int) -> dict:
    """Closed-loop burst: ``threads`` clients, ``pipeline`` requests in
    flight per connection, for ``seconds``.

    Every 8th request is a point-to-point query (the p2p lane rides
    bidirectional CH, not the sweep); the rest are one-to-many from a
    depot — the sweep-shaped op that batching amortizes.  Latency is
    measured per request, send to matching response (responses may be
    out of order).
    """
    import socket

    stop = time.monotonic() + seconds
    hist = LatencyHistogram()
    counts = [0] * threads
    failures: list[str] = []
    lock = threading.Lock()

    def worker(tid: int) -> None:
        rng = np.random.default_rng(1000 + tid)
        local = LatencyHistogram()
        done = 0
        try:
            with socket.create_connection(
                (handle.host, handle.port), timeout=60
            ) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                next_id = 0
                while time.monotonic() < stop:
                    sent_at: dict[int, float] = {}
                    for _ in range(pipeline):
                        next_id += 1
                        s = depots[int(rng.integers(len(depots)))]
                        if next_id % 8 == 0:
                            msg = {"id": next_id, "op": "query", "source": s,
                                   "target": int(rng.integers(n))}
                        else:
                            msg = {"id": next_id, "op": "one_to_many",
                                   "source": s,
                                   "targets": rng.integers(
                                       n, size=TARGETS_PER_REQUEST
                                   ).tolist()}
                        sent_at[next_id] = time.perf_counter()
                        protocol.send_message(sock, msg)
                    while sent_at:
                        resp = protocol.recv_message(sock)
                        t1 = time.perf_counter()
                        if not resp.get("ok"):
                            raise RuntimeError(f"server error: {resp}")
                        local.observe(t1 - sent_at.pop(resp["id"]))
                        done += 1
        except Exception as exc:
            with lock:
                failures.append(f"client {tid}: {exc!r}")
        with lock:
            hist.merge(local)
            counts[tid] = done

    workers = [
        threading.Thread(target=worker, args=(tid,)) for tid in range(threads)
    ]
    start = time.monotonic()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    elapsed = time.monotonic() - start
    if failures:
        raise RuntimeError(f"load generator failed: {failures[:3]}")
    total = sum(counts)
    summary = hist.summary()
    return {
        "clients": threads,
        "requests": total,
        "throughput_rps": round(total / elapsed, 1),
        "latency_ms": summary,
        "p50_ms": summary.get("p50_ms", 0.0),
        "p99_ms": summary.get("p99_ms", 0.0),
    }


def _sweep_mode(ch, graph, *, batching: bool, loads: list[int],
                seconds: float, pipeline: int, depots: list[int]) -> dict:
    config = ServerConfig(
        batch_max=BATCH_MAX if batching else 1,
        max_wait_ms=MAX_WAIT_MS if batching else 0.0, max_pending=4096,
    )
    service = PhastService(ch, graph=graph, config=config)
    points = []
    with serve_in_thread(service) as handle:
        with ServerClient(handle.host, handle.port) as probe:
            n = probe.info()["n"]
        _drive(handle, n, depots, 2, min(0.25, seconds), pipeline)  # warm
        for threads in loads:
            points.append(
                _drive(handle, n, depots, threads, seconds, pipeline)
            )
        with ServerClient(handle.host, handle.port) as probe:
            metrics = probe.metrics()
    rejected = sum(metrics["admission"]["rejected"].values())
    if rejected:
        raise RuntimeError(f"bench overloaded admission: {rejected} rejects")
    return {
        "batching": batching,
        "batch_max": config.batch_max,
        "max_wait_ms": config.max_wait_ms,
        "points": points,
        "mean_batch_size": metrics["batches"]["mean_size"],
        "mean_lanes_per_sweep": metrics["batches"]["mean_lanes"],
        "batch_size_histogram": metrics["batches"]["size_histogram"],
    }


def _router_sweep(ch, graph, *, loads: list[int], seconds: float,
                  pipeline: int, depots: list[int],
                  replica_counts: list[int]) -> dict:
    """Throughput/p99 through the router at 1..k in-thread replicas.

    The same ``_drive`` generator works unchanged — the router speaks
    the replica protocol on its public port.
    """
    out: dict = {"replica_counts": {}}
    config = ServerConfig(
        batch_max=BATCH_MAX, max_wait_ms=MAX_WAIT_MS, max_pending=4096,
    )
    for count in replica_counts:
        handles = [
            serve_in_thread(PhastService(ch, graph=graph, config=config))
            for _ in range(count)
        ]
        router = PhastRouter(RouterConfig(probe_interval_ms=100.0))
        for handle in handles:
            router.add_replica(handle.host, handle.port)
        try:
            with route_in_thread(router) as rh:
                with ServerClient(rh.host, rh.port) as probe:
                    n = probe.info()["n"]
                _drive(rh, n, depots, 2, min(0.25, seconds), pipeline)  # warm
                points = [
                    _drive(rh, n, depots, threads, seconds, pipeline)
                    for threads in loads
                ]
                with ServerClient(rh.host, rh.port) as probe:
                    metrics = probe.metrics()
        finally:
            for handle in handles:
                handle.stop()
        out["replica_counts"][str(count)] = {
            "points": points,
            "affinity": metrics["affinity"],
            "forwarded": metrics["forwarded"],
        }
    return out


def _router_availability(inst, *, seconds: float, depots: list[int]) -> dict:
    """The acceptance run: kill one of two subprocess replicas under
    checked load, then restart and readmit it — availability >= 99%,
    zero wrong answers."""
    engine = PhastEngine(inst.ch)
    reference = {d: engine.tree(d).dist for d in depots}
    workdir = tempfile.mkdtemp(prefix="repro-router-bench-")
    graph_path = os.path.join(workdir, "g.npz")
    ch_path = os.path.join(workdir, "g.ch.npz")
    save_graph(inst.graph, graph_path)
    save_hierarchy(inst.ch, ch_path)

    manager = ReplicaManager()
    router = PhastRouter(RouterConfig(
        probe_interval_ms=50.0, warmup_ms=500.0, down_after=2,
    ))
    phase_stats = {
        name: {"ok": 0, "failed": 0, "wrong": 0, "hist": LatencyHistogram()}
        for name in ("before", "during", "after")
    }
    lock = threading.Lock()
    events: dict[str, float] = {}
    try:
        victim, _survivor = (manager.spawn(graph_path, ch_path)
                             for _ in range(2))
        for managed in manager.replicas.values():
            router.add_replica(managed.host, managed.port)
        with route_in_thread(router) as rh:
            start = time.monotonic()
            kill_at = start + seconds
            restart_at = start + 2 * seconds
            stop_at = start + 3 * seconds

            def phase_of(now: float) -> str:
                if now < kill_at:
                    return "before"
                return "during" if now < restart_at else "after"

            def load(tid: int) -> None:
                rng = np.random.default_rng(2000 + tid)
                n = inst.graph.n
                with ServerClient(rh.host, rh.port) as c:
                    while time.monotonic() < stop_at:
                        depot = depots[int(rng.integers(len(depots)))]
                        targets = rng.integers(
                            n, size=TARGETS_PER_REQUEST
                        ).tolist()
                        t0 = time.perf_counter()
                        try:
                            got = c.one_to_many(depot, targets)
                        except Exception:
                            outcome = "failed"
                        else:
                            want = reference[depot][targets]
                            outcome = ("ok" if np.array_equal(got, want)
                                       else "wrong")
                        dt = time.perf_counter() - t0
                        with lock:
                            stats = phase_stats[phase_of(time.monotonic())]
                            stats[outcome] += 1
                            stats["hist"].observe(dt)

            def chaos() -> None:
                time.sleep(max(0.0, kill_at - time.monotonic()))
                os.kill(manager.replicas[victim].proc.pid, signal.SIGKILL)
                events["killed_s"] = round(time.monotonic() - start, 3)
                time.sleep(max(0.0, restart_at - time.monotonic()))
                manager.stop(victim)  # reap the corpse
                manager.restart(victim)
                rh.readmit(victim)
                events["readmitted_s"] = round(time.monotonic() - start, 3)

            loaders = [threading.Thread(target=load, args=(tid,))
                       for tid in range(2)]
            chaos_thread = threading.Thread(target=chaos)
            for t in loaders + [chaos_thread]:
                t.start()
            for t in loaders + [chaos_thread]:
                t.join()
            with ServerClient(rh.host, rh.port) as probe:
                health = probe.health()
                metrics = probe.metrics()
    finally:
        manager.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)

    totals = {k: sum(s[k] for s in phase_stats.values())
              for k in ("ok", "failed", "wrong")}
    answered = totals["ok"] + totals["failed"] + totals["wrong"]
    phases = {}
    for name, stats in phase_stats.items():
        summary = stats["hist"].summary()
        phases[name] = {
            "ok": stats["ok"],
            "failed": stats["failed"],
            "wrong": stats["wrong"],
            "p50_ms": summary.get("p50_ms", 0.0),
            "p99_ms": summary.get("p99_ms", 0.0),
        }
    return {
        "replicas": 2,
        "requests": answered,
        "availability": round(totals["ok"] / answered, 5) if answered else 0.0,
        "wrong_answers": totals["wrong"],
        "failed_requests": totals["failed"],
        "events": events,
        "phases": phases,
        "victim_state_after": health["replicas"][victim]["state"],
        "victim_generation": health["replicas"][victim]["generation"],
        "failovers": metrics["affinity"]["failovers"],
        "transitions": metrics["transitions"]["counts"],
    }


def run(quiet: bool = False) -> dict:
    loads = _client_loads()
    seconds = _measure_seconds()
    pipeline = _pipeline_depth()
    inst = load_instance()
    graph, ch = inst.graph, inst.ch
    rng = np.random.default_rng(7)
    depots = sorted(
        int(s) for s in rng.choice(
            graph.n, size=min(_depot_count(), graph.n), replace=False
        )
    )

    record: dict = {
        "bench": "server",
        "instance": inst.name,
        "n": int(graph.n),
        "m": int(graph.m),
        "cpus": os.cpu_count(),
        "workload": {
            "shape": "closed-loop, 7/8 one_to_many "
                     f"({TARGETS_PER_REQUEST} targets) + 1/8 query, "
                     "sources uniform over hot depots",
            "depots": len(depots),
            "seconds_per_point": seconds,
            "client_loads": loads,
            "pipeline_per_client": pipeline,
        },
        "modes": {},
        "notes": [],
    }
    for batching in (False, True):
        key = "batching_on" if batching else "batching_off"
        record["modes"][key] = _sweep_mode(
            ch, graph, batching=batching, loads=loads, seconds=seconds,
            pipeline=pipeline, depots=depots,
        )

    record["batch_cost"] = _batch_cost(ch, graph.n)

    record["router"] = _router_sweep(
        ch, graph, loads=loads, seconds=seconds, pipeline=pipeline,
        depots=depots, replica_counts=_router_replica_counts(),
    )
    record["router_availability"] = _router_availability(
        inst, seconds=seconds, depots=depots
    )

    on = record["modes"]["batching_on"]["points"]
    off = record["modes"]["batching_off"]["points"]
    record["speedup_by_load"] = {
        str(p_on["clients"]): round(
            p_on["throughput_rps"] / p_off["throughput_rps"], 2
        )
        for p_on, p_off in zip(on, off)
    }
    record["speedup_at_top_load"] = record["speedup_by_load"][str(loads[-1])]
    if (os.cpu_count() or 1) <= 1:
        record["notes"].append(
            "single-CPU host: the batching gain is level-loop "
            "amortization (alpha / k) plus same-source lane "
            "coalescing, with no extra cores involved"
        )
    direct_top = on[-1]["throughput_rps"]
    router_counts = record["router"]["replica_counts"]
    if "1" in router_counts:
        routed_top = router_counts["1"]["points"][-1]["throughput_rps"]
        record["router"]["hop_overhead_at_top_load"] = round(
            direct_top / routed_top, 2
        ) if routed_top else None
    if (os.cpu_count() or 1) <= 2:
        record["notes"].append(
            "few-CPU host: router replicas share cores with each other "
            "and the load generator, so the sweep prices the hop and "
            "the affinity behaviour, not replica scaling"
        )

    if not quiet:
        rows = []
        for p_off, p_on in zip(off, on):
            rows.append([
                p_off["clients"],
                fmt(p_off["throughput_rps"], 0),
                fmt(p_on["throughput_rps"], 0),
                f"{p_on['throughput_rps'] / p_off['throughput_rps']:.2f}x",
                fmt(p_on["p50_ms"], 2),
                fmt(p_on["p99_ms"], 2),
            ])
        print_table(
            f"server throughput, batching off vs on "
            f"({seconds:.1f}s per point)",
            ["clients", "off req/s", "on req/s", "speedup",
             "on p50 ms", "on p99 ms"],
            rows,
        )
        print(
            f"mean batch size at load: "
            f"{record['modes']['batching_on']['mean_batch_size']}; "
            f"speedup at {loads[-1]} clients: "
            f"{record['speedup_at_top_load']}x"
        )
        cost = record["batch_cost"]
        print_table(
            "C(k): one served batch of k trees (search + sweep, "
            "answer frames)",
            ["k", "search+sweep ms", "frames ms", "batch ms",
             "per request ms"],
            [[p["k"], fmt(p["search_sweep_ms"], 3),
              fmt(p["finalize_encode_ms"], 3), fmt(p["batch_ms"], 3),
              fmt(p["per_request_ms"], 3)] for p in cost["points"]],
        )
        print(f"C(k) = {cost['alpha_ms']:.3f} + {cost['beta_ms']:.3f} k ms "
              f"(alpha / beta = {cost['alpha_over_beta']})")
        rows = []
        for count, mode in sorted(record["router"]["replica_counts"].items(),
                                  key=lambda kv: int(kv[0])):
            top = mode["points"][-1]
            hit_rate = mode["affinity"]["hit_rate"]
            rows.append([
                count,
                fmt(top["throughput_rps"], 0),
                fmt(top["p50_ms"], 2),
                fmt(top["p99_ms"], 2),
                "-" if hit_rate is None else f"{hit_rate:.3f}",
                mode["affinity"]["spills"],
            ])
        print_table(
            f"router sweep at {loads[-1]} clients (in-thread replicas)",
            ["replicas", "req/s", "p50 ms", "p99 ms", "affinity hit", "spills"],
            rows,
        )
        if record["router"].get("hop_overhead_at_top_load"):
            print(
                "router hop overhead at top load: "
                f"{record['router']['hop_overhead_at_top_load']}x "
                "(direct rps / routed rps, 1 replica)"
            )
        ravail = record["router_availability"]
        print_table(
            "router availability through one replica SIGKILL "
            "(2 spawned replicas, every answer checked)",
            ["phase", "ok", "failed", "wrong", "p50 ms", "p99 ms"],
            [
                [name,
                 ravail["phases"][name]["ok"],
                 ravail["phases"][name]["failed"],
                 ravail["phases"][name]["wrong"],
                 fmt(ravail["phases"][name]["p50_ms"], 2),
                 fmt(ravail["phases"][name]["p99_ms"], 2)]
                for name in ("before", "during", "after")
            ],
        )
        print(
            f"availability: {ravail['availability'] * 100:.2f}% over "
            f"{ravail['requests']} checked requests, "
            f"{ravail['wrong_answers']} wrong, "
            f"{ravail['failovers']} failover(s); victim "
            f"{ravail['victim_state_after']} at generation "
            f"{ravail['victim_generation']} after readmission"
        )
        for note in record["notes"]:
            print(f"note: {note}")
    with open(OUTPUT, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    if not quiet:
        print(f"wrote {OUTPUT}")
    return record


if __name__ == "__main__":
    run()
