"""Command-line interface.

The offline/online split of the PHAST pipeline maps naturally onto
subcommands::

    python -m repro generate --kind europe --scale 64 -o map.npz
    python -m repro preprocess map.npz -o map.ch.npz
    python -m repro tree map.npz map.ch.npz --source 0 -o dists.npz
    python -m repro batch map.npz map.ch.npz --count 256 --workers 4
    python -m repro query map.npz map.ch.npz --source 0 --target 4095
    python -m repro stats map.npz map.ch.npz
    python -m repro convert map.gr -o map.npz        # DIMACS import
    python -m repro customize map.npz --topology-out map.topo.npz \
        --metric-out map.metric.npz                  # topology/metric split
    python -m repro serve map.npz map.ch.npz --port 7171
    python -m repro serve --topology map.topo.npz --metric map.metric.npz
    python -m repro swap --port 7171 --weights new-weights.npz  # hot swap
    python -m repro route map.npz map.ch.npz --replicas 2 --port 7170
    python -m repro client --port 7171 --op query --sources 0 --targets 4095
    python -m repro doctor --unlink                  # reap orphaned shm

Graphs and hierarchies travel as ``.npz`` artifacts
(:mod:`repro.graph.serialize`); DIMACS ``.gr`` files are accepted
wherever a graph is expected.

Operational errors (missing files, stale artifacts, out-of-range
vertex ids, unreachable servers) exit with status 2 and one ``error:``
line on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["main"]


def _load_graph(path: str):
    from .graph import load_graph, read_gr

    if str(path).endswith(".gr"):
        return read_gr(path)
    return load_graph(path)


def _check_vertex(value: int, n: int, what: str) -> int:
    if not 0 <= value < n:
        raise ValueError(f"{what} {value} out of range [0, {n})")
    return int(value)


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graph import dfs_order, europe_like, save_graph, usa_like

    maker = {"europe": europe_like, "usa": usa_like}[args.kind]
    graph = maker(scale=args.scale, metric=args.metric, seed=args.seed)
    if args.layout == "dfs":
        graph = graph.permute(dfs_order(graph))
    save_graph(graph, args.output)
    print(f"{args.output}: {graph.n} vertices, {graph.m} arcs ({args.kind}/{args.metric})")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from .graph import save_graph, write_gr

    graph = _load_graph(args.input)
    if str(args.output).endswith(".gr"):
        write_gr(graph, args.output)
    else:
        save_graph(graph, args.output)
    print(f"{args.input} -> {args.output}: {graph.n} vertices, {graph.m} arcs")
    return 0


def _cmd_preprocess(args: argparse.Namespace) -> int:
    from .ch import contract_graph
    from .graph import save_hierarchy

    graph = _load_graph(args.graph)
    start = time.perf_counter()
    ch = contract_graph(
        graph,
        num_workers=args.preprocess_workers,
        force_pool=args.force_pool,
    )
    elapsed = time.perf_counter() - start
    save_hierarchy(ch, args.output)
    stats = ch.preprocessing_stats
    detail = f"{stats['rounds']} rounds"
    if stats["parallel"]:
        detail += f", {stats['workers']} workers"
    elif stats["fell_back"]:
        detail += ", fell back to serial (1 CPU)"
    print(
        f"{args.output}: {ch.num_shortcuts} shortcuts, "
        f"{ch.num_levels} levels, {elapsed:.1f}s ({detail})"
    )
    return 0


def _load_weights(spec: str, graph=None) -> np.ndarray:
    """Per-base-arc weights from ``spec``.

    Accepts a ``.npz`` with a ``weights`` array, a graph artifact
    (its ``arc_len`` is the weight vector), or a text file of one
    integer per line / whitespace-separated.
    """
    path = Path(spec)
    if path.suffix == ".npz":
        with np.load(path) as data:
            if "weights" in data:
                return np.asarray(data["weights"], dtype=np.int64)
            if "arc_len" in data:
                return np.asarray(data["arc_len"], dtype=np.int64)
        raise ValueError(
            f"{spec}: no 'weights' (or graph 'arc_len') array in archive"
        )
    if path.suffix == ".gr":
        return np.asarray(_load_graph(spec).arc_len, dtype=np.int64)
    return np.loadtxt(path, dtype=np.int64).reshape(-1)


def _cmd_customize(args: argparse.Namespace) -> int:
    """Topology/metric split: the offline half of hot weight swaps.

    Builds (or loads) the metric-independent topology artifact, then
    runs the customization pass for one weight vector and writes the
    metric artifact.  At serve time ``--topology``/``--metric`` load
    these, and ``repro swap`` pushes fresh metrics into the running
    server without re-contraction.
    """
    from .ch import build_topology, customize
    from .graph import load_topology, save_metric, save_topology

    graph = _load_graph(args.graph)
    if args.topology:
        topology = load_topology(args.topology)
        if topology.n != graph.n:
            raise ValueError(
                f"graph has {graph.n} vertices but topology has "
                f"{topology.n}; the artifacts do not belong together"
            )
        print(f"loaded topology {args.topology} "
              f"(closure {topology.num_arcs} arcs)")
    else:
        start = time.perf_counter()
        topology = build_topology(graph)
        elapsed = time.perf_counter() - start
        print(
            f"topology: {topology.num_arcs} closure arcs, "
            f"{topology.num_triangles} triangles, "
            f"{topology.stats['levels']} levels, {elapsed:.1f}s"
        )
    if args.topology_out:
        save_topology(topology, args.topology_out)
        print(f"topology written to {args.topology_out}")
    weights = (_load_weights(args.weights) if args.weights
               else np.asarray(graph.arc_len, dtype=np.int64))
    if weights.size != topology.num_base_arcs:
        raise ValueError(
            f"weight vector has {weights.size} entries but the topology "
            f"covers {topology.num_base_arcs} base arcs"
        )
    start = time.perf_counter()
    metric = customize(topology, weights)
    elapsed = time.perf_counter() - start
    print(f"customize: {elapsed * 1e3:.1f} ms "
          f"({topology.num_arcs / max(elapsed, 1e-9):.0f} arcs/s)")
    if args.metric_out:
        save_metric(metric, args.metric_out)
        print(f"metric written to {args.metric_out}")
    if not args.topology_out and not args.metric_out:
        print("note: no --topology-out/--metric-out; nothing was saved")
    return 0


def _cmd_swap(args: argparse.Namespace) -> int:
    """Hot-swap the metric of a running server (or every replica
    behind a router) from the command line."""
    from .server import ServerClient

    if bool(args.weights) == bool(args.metric_path):
        raise ValueError(
            "exactly one of --weights and --metric-path is required"
        )
    weights = _load_weights(args.weights) if args.weights else None
    with ServerClient(
        args.host, args.port, connect_retry_s=args.wait_ready
    ) as client:
        start = time.perf_counter()
        report = client.swap_metric(
            weights=weights, path=args.metric_path,
            timeout=args.swap_timeout,
        )
        elapsed = time.perf_counter() - start
    if "replicas" in report:  # router: one payload per replica
        for name, payload in sorted(report["replicas"].items()):
            print(f"{name}: generation {payload['metric_generation']} "
                  f"(swap {payload['swap_seconds'] * 1e3:.1f} ms)")
        print(f"rolled {len(report['replicas'])} replica(s) "
              f"in {elapsed:.2f}s")
    else:
        print(
            f"metric generation {report['metric_generation']} live "
            f"(customize {report.get('customize_seconds', 0) * 1e3:.1f} ms, "
            f"swap {report['swap_seconds'] * 1e3:.1f} ms)"
        )
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from .core import PhastEngine
    from .graph import load_hierarchy
    from .graph.csr import INF

    graph = _load_graph(args.graph)
    ch = load_hierarchy(args.hierarchy)
    _check_vertex(args.source, ch.n, "--source")
    engine = PhastEngine(ch)
    engine.tree(args.source)  # warm up
    start = time.perf_counter()
    tree = engine.tree(args.source)
    ms = (time.perf_counter() - start) * 1e3
    reached = tree.dist < INF
    print(
        f"source {args.source}: {int(reached.sum())}/{graph.n} reached, "
        f"max distance {int(tree.dist[reached].max())}, {ms:.2f} ms"
    )
    if args.output:
        np.savez_compressed(args.output, source=args.source, dist=tree.dist)
        print(f"labels written to {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .core import PhastPool
    from .graph import load_hierarchy
    from .graph.csr import INF

    graph = _load_graph(args.graph)
    ch = load_hierarchy(args.hierarchy)
    if args.sources:
        try:
            sources = [int(s) for s in args.sources.split(",")]
        except ValueError:
            raise ValueError(
                f"--sources must be comma-separated integers "
                f"(got {args.sources!r})"
            ) from None
        for s in sources:
            _check_vertex(s, ch.n, "source")
    else:
        rng = np.random.default_rng(args.seed)
        sources = rng.choice(graph.n, size=min(args.count, graph.n),
                             replace=False).tolist()
    with PhastPool(
        ch,
        num_workers=args.workers,
        sources_per_sweep=args.sweep_k,
        force_pool=args.force_pool,
    ) as pool:
        pool.trees(sources[:1])  # warm up (fork + engine builds)
        start = time.perf_counter()
        mat = pool.trees(sources)
        elapsed = time.perf_counter() - start
        mode = "serial" if pool.serial else f"{pool.num_workers} workers"
        reached = mat < INF
        print(
            f"{len(sources)} trees in {elapsed * 1e3:.1f} ms "
            f"({len(sources) / elapsed:.1f} trees/s, {mode}, "
            f"k={args.sweep_k}); mean reached "
            f"{reached.sum() / len(sources):.0f}/{graph.n}"
        )
        if args.output:
            np.savez_compressed(
                args.output,
                sources=np.asarray(sources, dtype=np.int64),
                dist=mat,
            )
            print(f"distance matrix written to {args.output}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .ch import ch_query
    from .graph import load_hierarchy
    from .graph.csr import INF

    ch = load_hierarchy(args.hierarchy)
    _check_vertex(args.source, ch.n, "--source")
    _check_vertex(args.target, ch.n, "--target")
    start = time.perf_counter()
    q = ch_query(
        ch, args.source, args.target, unpack=args.path, stall=args.stall
    )
    ms = (time.perf_counter() - start) * 1e3
    if q.distance >= INF:
        print(f"{args.source} -> {args.target}: unreachable ({ms:.2f} ms)")
        return 1
    print(
        f"{args.source} -> {args.target}: distance {q.distance}, "
        f"settled {q.settled_forward + q.settled_backward}, {ms:.2f} ms"
    )
    if args.path and q.path:
        print(" -> ".join(str(v) for v in q.path))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .graph import load_hierarchy

    graph = _load_graph(args.graph)
    degrees = graph.degrees()
    print(f"graph: n={graph.n} m={graph.m}")
    print(
        f"degrees: min={degrees.min()} mean={degrees.mean():.2f} "
        f"max={degrees.max()}"
    )
    print(f"length range: [{graph.arc_len.min()}, {graph.arc_len.max()}]")
    if args.hierarchy:
        ch = load_hierarchy(args.hierarchy)
        hist = ch.level_histogram()
        print(
            f"hierarchy: {ch.num_shortcuts} shortcuts, {ch.num_levels} "
            f"levels, level 0 holds {hist[0] / ch.n:.0%} of vertices"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .graph import load_hierarchy, load_metric, load_topology
    from .server import PhastService, ServerConfig

    topo_mode = bool(args.topology or args.metric)
    if topo_mode:
        if not (args.topology and args.metric):
            raise ValueError("--topology and --metric go together")
        if args.hierarchy is not None:
            raise ValueError(
                "give either graph+hierarchy artifacts or "
                "--topology/--metric, not both"
            )
        topology = load_topology(args.topology)
        metric = load_metric(args.metric, topology=topology)
        graph = _load_graph(args.graph) if args.graph else None
        if graph is not None and graph.n != topology.n:
            raise ValueError(
                f"graph has {graph.n} vertices but topology has "
                f"{topology.n}; the artifacts do not belong together"
            )
    else:
        if args.graph is None or args.hierarchy is None:
            raise ValueError(
                "serve needs graph and hierarchy artifacts "
                "(or --topology with --metric)"
            )
        graph = _load_graph(args.graph)
        ch = load_hierarchy(args.hierarchy)
        if ch.n != graph.n:
            raise ValueError(
                f"graph has {graph.n} vertices but hierarchy has {ch.n}; "
                "the artifacts do not belong together"
            )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        default_timeout_ms=args.timeout_ms if args.timeout_ms > 0 else None,
        selection_cache=args.selection_cache,
    )
    if topo_mode:
        service = PhastService(topology=topology, metric=metric,
                               graph=graph, config=config)
        served = f"{args.topology} + {args.metric}"
        n, m = topology.n, topology.num_base_arcs
    else:
        service = PhastService(ch, graph=graph, config=config)
        served = str(args.graph)
        n, m = graph.n, graph.m

    async def _serve() -> None:
        await service.start()
        print(
            f"serving {served} (n={n}, m={m}) on "
            f"{service.host}:{service.port} — "
            f"batch_max={config.batch_max}, wait={config.max_wait_ms}ms",
            flush=True,
        )
        service.drain_on_signals()
        await service.wait_drained()
        snap = service.admission()
        print(
            f"drained: {snap['admitted_total']} requests served, "
            f"rejected {snap['rejected']}",
            flush=True,
        )

    asyncio.run(_serve())
    return 0


def _client_ids(args: argparse.Namespace, flag: str) -> list[int] | None:
    """Vertex ids from ``--sources``/``--targets`` (comma-separated)."""
    value = getattr(args, flag)
    if value is None:
        return None
    try:
        return [int(v) for v in str(value).split(",")]
    except ValueError:
        raise ValueError(
            f"--{flag} must be comma-separated integers (got {value!r})"
        ) from None


def _client_one(args: argparse.Namespace, flag: str) -> int:
    ids = _client_ids(args, flag)
    if ids is None:
        raise ValueError(f"--{flag} is required for --op {args.op}")
    if len(ids) != 1:
        raise ValueError(
            f"--op {args.op} takes exactly one of --{flag} "
            f"(got {len(ids)})"
        )
    return ids[0]


def _cmd_client(args: argparse.Namespace) -> int:
    from .server import ServerClient

    if args.burst:
        return _client_burst(args)
    with ServerClient(
        args.host, args.port, connect_retry_s=args.wait_ready
    ) as client:
        op = args.op.replace("-", "_")
        if op == "ping":
            print("pong" if client.ping() else "no pong")
        elif op == "info":
            print(json.dumps(client.info(), indent=2))
        elif op == "metrics":
            print(json.dumps(client.metrics(), indent=2))
        elif op == "health":
            health = client.health()
            print(json.dumps(health, indent=2))
            if not health.get("ready"):
                return 1
        elif op == "query":
            source = _client_one(args, "sources")
            target = _client_one(args, "targets")
            resp = client.query(sources=source, targets=target,
                                stall=args.stall)
            if not resp["reachable"]:
                print(f"{source} -> {target}: unreachable")
                return 1
            print(
                f"{source} -> {target}: distance "
                f"{resp['distance']} (settled {resp['settled']})"
            )
        elif op == "tree":
            source = _client_one(args, "sources")
            dist = client.tree(source)
            from .graph.csr import INF

            reached = dist < INF
            print(
                f"source {source}: {int(reached.sum())}/{dist.size} "
                f"reached, max distance {int(dist[reached].max())}"
            )
            if args.output:
                np.savez_compressed(args.output, source=source, dist=dist)
                print(f"labels written to {args.output}")
        elif op == "one_to_many":
            source = _client_one(args, "sources")
            targets = _client_ids(args, "targets")
            if targets is None:
                raise ValueError("--targets is required for --op one-to-many")
            dist = client.one_to_many(source, targets)
            for t, d in zip(targets, dist):
                print(f"{source} -> {t}: {int(d)}")
        elif op == "matrix":
            sources = _client_ids(args, "sources")
            targets = _client_ids(args, "targets")
            if sources is None or targets is None:
                raise ValueError(
                    "--sources and --targets are required for --op matrix"
                )
            mat = client.matrix(sources, targets)
            print("        " + " ".join(f"{t:>8}" for t in targets))
            for s, row in zip(sources, mat):
                print(f"{s:>8}" + " ".join(f"{int(d):>8}" for d in row))
        elif op == "isochrone":
            source = _client_one(args, "sources")
            _require_args(args, "budget")
            vertices = client.isochrone(source, args.budget)
            print(
                f"{vertices.size} vertices within {args.budget} of "
                f"{source}"
            )
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown op {args.op!r}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    """Front-door router over N serve replicas (spawned and/or adopted).

    SIGINT/SIGTERM drain the router, then stop spawned replicas
    gracefully.  SIGHUP triggers a rolling drain/restart of every
    spawned replica — a zero-downtime redeploy — while the router
    keeps serving from the others.
    """
    import asyncio
    import signal
    import threading

    from .router import PhastRouter, ReplicaManager, RouterConfig, RouterHandle

    attach = [s.strip() for s in (args.attach or "").split(",") if s.strip()]
    if args.replicas < 1 and not attach:
        raise ValueError("need --replicas >= 1 (with graph + hierarchy) "
                         "or --attach host:port[,host:port...]")
    if args.replicas >= 1 and (args.graph is None or args.hierarchy is None):
        raise ValueError("spawning replicas requires graph and hierarchy "
                         "artifact paths")
    manager = ReplicaManager()
    try:
        for i in range(args.replicas):
            port = 0 if args.replica_port == 0 else args.replica_port + i
            name = manager.spawn(
                args.graph, args.hierarchy, host="127.0.0.1", port=port,
                extra_args=tuple(args.serve_arg or ()),
            )
            print(f"replica {name} ready", flush=True)
        for spec in attach:
            host, _, port_s = spec.rpartition(":")
            if not host or not port_s.isdigit():
                raise ValueError(f"--attach entry {spec!r} is not host:port")
            manager.adopt(host, int(port_s))
            print(f"replica {spec} adopted", flush=True)

        config = RouterConfig(
            host=args.host, port=args.port,
            probe_interval_ms=args.probe_interval_ms,
            warmup_ms=args.warmup_ms,
        )
        router = PhastRouter(config)
        for managed in manager.replicas.values():
            router.add_replica(managed.host, managed.port)

        async def _route() -> None:
            await router.start()
            print(
                f"routing on {router.host}:{router.port} -> "
                f"{len(router.replicas)} replica(s): "
                f"{', '.join(router.replicas)}",
                flush=True,
            )
            router.drain_on_signals()
            loop = asyncio.get_running_loop()
            # Blocking rotation control for the restart thread.
            ctl = RouterHandle(router, threading.current_thread(), loop)
            restart_gate = threading.Lock()

            def _rolling() -> None:
                if not restart_gate.acquire(blocking=False):
                    return  # one rolling restart at a time
                try:
                    restarted = manager.rolling_restart(ctl)
                    print(f"rolling restart done: {', '.join(restarted)}",
                          flush=True)
                except Exception as exc:
                    print(f"rolling restart failed: {exc}", flush=True)
                finally:
                    restart_gate.release()

            try:
                loop.add_signal_handler(
                    signal.SIGHUP,
                    lambda: threading.Thread(target=_rolling,
                                             daemon=True).start(),
                )
            except (NotImplementedError, RuntimeError, AttributeError):
                pass
            await router.wait_drained()
            snap = router.metrics.snapshot()
            total = sum(snap["requests_total"].values())
            affinity = snap["affinity"]
            print(
                f"drained: {total} requests routed, "
                f"affinity hit rate {affinity['hit_rate']}, "
                f"{affinity['failovers']} failover(s)",
                flush=True,
            )

        asyncio.run(_route())
    finally:
        manager.stop_all()
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Inspect (and optionally reap) pool shared-memory segments.

    A pool that dies without cleanup — SIGKILL, OOM, a pulled plug —
    leaves its ``repro-<pid>-<hex>`` segments in ``/dev/shm``.  The
    embedded pid makes them attributable: a segment whose creator is
    verifiably dead is an orphan and safe to unlink; segments of live
    processes (or with unparseable names) are never touched.

    Exit status: 0 when nothing is orphaned (or ``--unlink`` removed
    everything), 1 when orphans remain — so CI can use it as a leak
    check.
    """
    from .core.supervisor import scan_segments, unlink_orphans

    infos = scan_segments()
    removed = unlink_orphans(infos) if args.unlink else []
    removed_names = {info.name for info in removed}
    remaining = [
        info for info in infos
        if info.orphaned and info.name not in removed_names
    ]
    if args.json:
        print(json.dumps({
            "segments": [
                {"name": i.name, "size_bytes": i.size_bytes, "pid": i.pid,
                 "owner_alive": i.owner_alive, "orphaned": i.orphaned,
                 "kind": i.kind, "generation": i.generation,
                 "age_seconds": i.age_seconds}
                for i in infos
            ],
            "orphans": len([i for i in infos if i.orphaned]),
            "removed": sorted(removed_names),
        }, indent=2))
        return 1 if remaining else 0
    if not infos:
        print("no pool segments in /dev/shm")
        return 0
    for info in infos:
        owner = (f"pid {info.pid} "
                 f"{'alive' if info.owner_alive else 'dead'}"
                 if info.pid is not None else "owner unknown")
        state = ("removed" if info.name in removed_names
                 else "ORPHANED" if info.orphaned else "in use")
        kind = info.kind
        if kind == "metric" and info.generation is not None:
            kind = f"metric g{info.generation}"
        age = (f", age {info.age_seconds:.0f}s"
               if info.age_seconds is not None else "")
        print(f"{info.name}: {kind}, {info.size_bytes} bytes, "
              f"{owner}{age} — {state}")
    if remaining:
        print(f"{len(remaining)} orphaned segment(s); "
              "run `repro doctor --unlink` to remove them")
        return 1
    return 0


def _require_args(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for "
                             f"--op {args.op}")


def _client_burst(args: argparse.Namespace) -> int:
    """Closed-loop mixed-workload burst (the CI smoke driver)."""
    import threading

    from .server import ServerClient, ServerError
    from .utils.timing import LatencyHistogram

    ops = [op.strip().replace("-", "_") for op in args.mix.split(",") if op.strip()]
    known = {"query", "tree", "one_to_many", "isochrone", "matrix"}
    unknown = set(ops) - known
    if not ops or unknown:
        raise ValueError(f"--mix must name ops from {sorted(known)}")
    with ServerClient(args.host, args.port,
                      connect_retry_s=args.wait_ready) as probe:
        n = probe.info()["n"]
    per_thread = -(-args.burst // args.threads)
    # Per-thread, per-op histograms: against a router, aggregate
    # latency hides which op pays the forwarding hop — the breakdown
    # makes router-vs-direct overhead attributable per op.
    hists: list[dict[str, LatencyHistogram]] = [
        {op: LatencyHistogram() for op in ops} for _ in range(args.threads)
    ]
    failures: list[str] = []

    def worker(tid: int) -> None:
        rng = np.random.default_rng(args.seed + tid)
        # A fixed per-thread "depot set" for matrix requests: repeated
        # target sets are the workload the selection cache exists for.
        depots = sorted(int(v) for v in rng.choice(n, size=min(8, n),
                                                   replace=False))
        try:
            with ServerClient(args.host, args.port) as client:
                for i in range(per_thread):
                    op = ops[i % len(ops)]
                    s = int(rng.integers(n))
                    t0 = time.perf_counter()
                    if op == "query":
                        client.query(s, int(rng.integers(n)))
                    elif op == "tree":
                        client.tree(s)
                    elif op == "one_to_many":
                        k = min(8, n)
                        client.one_to_many(
                            s, rng.choice(n, size=k, replace=False)
                        )
                    elif op == "matrix":
                        k = min(4, n)
                        client.matrix(
                            rng.choice(n, size=k, replace=False), depots
                        )
                    else:
                        client.isochrone(s, int(rng.integers(1, 10_000)))
                    hists[tid][op].observe(time.perf_counter() - t0)
        except (ServerError, ConnectionError, OSError) as exc:
            failures.append(f"thread {tid}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(tid,), daemon=True)
        for tid in range(args.threads)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    total = LatencyHistogram()
    per_op = {op: LatencyHistogram() for op in ops}
    for per_thread_hists in hists:
        for op, h in per_thread_hists.items():
            total.merge(h)
            per_op[op].merge(h)
    summary = total.summary()
    print(
        f"{total.count} requests ({args.threads} threads, mix {','.join(ops)}) "
        f"in {elapsed:.2f}s: {total.count / elapsed:.1f} req/s, "
        f"p50 {summary.get('p50_ms', 0)} ms, p99 {summary.get('p99_ms', 0)} ms"
    )
    for op in ops:
        s = per_op[op].summary()
        if per_op[op].count:
            print(
                f"  {op}: {per_op[op].count} reqs, "
                f"p50 {s.get('p50_ms', 0)} ms, p99 {s.get('p99_ms', 0)} ms, "
                f"mean {s.get('mean_ms', 0)} ms"
            )
    if failures:
        for line in failures:
            print(f"error: {line}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PHAST reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic road network")
    g.add_argument("--kind", choices=("europe", "usa"), default="europe")
    g.add_argument("--scale", type=int, default=64)
    g.add_argument("--metric", choices=("time", "distance"), default="time")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--layout", choices=("dfs", "input"), default="dfs")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("convert", help="convert between DIMACS .gr and .npz")
    c.add_argument("input")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_cmd_convert)

    p = sub.add_parser("preprocess", help="build the contraction hierarchy")
    p.add_argument("graph")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--preprocess-workers",
        type=int,
        default=1,
        metavar="N",
        help="parallelize the contraction rounds' witness phases over N "
        "worker processes (default: 1, in process; a single-CPU host "
        "falls back to in process unless --force-pool)",
    )
    p.add_argument(
        "--force-pool",
        action="store_true",
        help="spin up preprocessing worker processes even on a "
        "single-CPU host (testing the multiprocessing path)",
    )
    p.set_defaults(func=_cmd_preprocess)

    cz = sub.add_parser(
        "customize",
        help="split preprocessing: build topology + customize a metric",
    )
    cz.add_argument("graph")
    cz.add_argument("--topology",
                    help="reuse an existing topology artifact instead of "
                    "building one from the graph")
    cz.add_argument("--topology-out", metavar="PATH",
                    help="write the metric-independent topology artifact")
    cz.add_argument("--metric-out", metavar="PATH",
                    help="write the customized metric artifact")
    cz.add_argument("--weights", metavar="FILE",
                    help="weight vector (.npz with 'weights', a graph "
                    "artifact, or a text file); default: the graph's "
                    "own arc lengths")
    cz.set_defaults(func=_cmd_customize)

    sw = sub.add_parser(
        "swap",
        help="hot-swap the metric of a running server (or every "
        "replica behind a router)",
    )
    sw.add_argument("--host", default="127.0.0.1")
    sw.add_argument("--port", type=int, default=7171)
    sw.add_argument("--wait-ready", type=float, default=0.0,
                    help="retry the first connection for this many seconds")
    sw.add_argument("--weights", metavar="FILE",
                    help="weight vector to ship inline (.npz/graph/text)")
    sw.add_argument("--metric-path", metavar="PATH",
                    help="metric artifact path on the server's filesystem")
    sw.add_argument("--swap-timeout", type=float, default=300.0,
                    help="client-side wait for the swap to complete")
    sw.set_defaults(func=_cmd_swap)

    t = sub.add_parser("tree", help="one PHAST shortest path tree")
    t.add_argument("graph")
    t.add_argument("hierarchy")
    t.add_argument("--source", type=int, required=True)
    t.add_argument("-o", "--output")
    t.set_defaults(func=_cmd_tree)

    b = sub.add_parser(
        "batch", help="many trees on a persistent shared-memory pool"
    )
    b.add_argument("graph")
    b.add_argument("hierarchy")
    b.add_argument(
        "--sources", help="comma-separated roots (default: random sample)"
    )
    b.add_argument("--count", type=int, default=64,
                   help="random roots when --sources is absent")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: CPU count, capped)")
    b.add_argument("--sweep-k", type=int, default=4,
                   help="sources per sweep pass (Section IV-B lanes)")
    b.add_argument("--force-pool", action="store_true",
                   help="spawn workers even on a single-CPU host")
    b.add_argument("-o", "--output", help="write sources + distance matrix")
    b.set_defaults(func=_cmd_batch)

    q = sub.add_parser("query", help="point-to-point CH query")
    q.add_argument("hierarchy")
    q.add_argument("--source", type=int, required=True)
    q.add_argument("--target", type=int, required=True)
    q.add_argument("--path", action="store_true", help="print the route")
    q.add_argument("--stall", action="store_true", help="stall-on-demand")
    q.set_defaults(func=_cmd_query)

    s = sub.add_parser("stats", help="summarize a graph (and hierarchy)")
    s.add_argument("graph")
    s.add_argument("hierarchy", nargs="?")
    s.set_defaults(func=_cmd_stats)

    sv = sub.add_parser(
        "serve", help="long-lived query service with dynamic micro-batching"
    )
    sv.add_argument("graph", nargs="?",
                    help="graph artifact (omit when serving --topology)")
    sv.add_argument("hierarchy", nargs="?",
                    help="hierarchy artifact (omit when serving --topology)")
    sv.add_argument("--topology",
                    help="serve a topology artifact (repro customize) "
                    "instead of a hierarchy; enables hot metric swaps")
    sv.add_argument("--metric",
                    help="initial metric artifact for --topology")
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7171,
                    help="TCP port (0 = ephemeral)")
    sv.add_argument("--batch-max", type=int, default=16,
                    help="max requests per sweep batch")
    sv.add_argument("--max-wait-ms", type=float, default=2.0,
                    help="cap on the micro-batch window, ms")
    sv.add_argument("--max-pending", type=int, default=256,
                    help="admission bound on in-flight work requests")
    sv.add_argument("--timeout-ms", type=float, default=30_000.0,
                    help="default per-request deadline (<= 0 disables)")
    sv.add_argument("--selection-cache", type=int, default=32,
                    help="LRU capacity for RPHAST matrix selections")
    sv.set_defaults(func=_cmd_serve)

    rt = sub.add_parser(
        "route",
        help="front-door router: one public port over N serve replicas",
    )
    rt.add_argument("graph", nargs="?",
                    help="graph artifact for spawned replicas")
    rt.add_argument("hierarchy", nargs="?",
                    help="hierarchy artifact for spawned replicas")
    rt.add_argument("--host", default="127.0.0.1")
    rt.add_argument("--port", type=int, default=7170,
                    help="router TCP port (0 = ephemeral)")
    rt.add_argument("--replicas", type=int, default=0,
                    help="spawn this many repro serve replicas over the "
                    "artifacts")
    rt.add_argument("--replica-port", type=int, default=0,
                    help="base port for spawned replicas, +1 per replica "
                    "(0 = ephemeral ports)")
    rt.add_argument("--attach",
                    help="comma-separated host:port replicas to adopt "
                    "instead of (or besides) spawning")
    rt.add_argument("--serve-arg", action="append", metavar="ARG",
                    help="extra argument passed through to each spawned "
                    "replica's serve command (repeatable)")
    rt.add_argument("--probe-interval-ms", type=float, default=200.0,
                    help="replica health-probe period")
    rt.add_argument("--warmup-ms", type=float, default=2000.0,
                    help="traffic ramp for a replica re-entering rotation")
    rt.set_defaults(func=_cmd_route)

    cl = sub.add_parser("client", help="query a running repro server")
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=7171)
    cl.add_argument("--wait-ready", type=float, default=0.0,
                    help="retry the first connection for this many seconds")
    cl.add_argument(
        "--op",
        choices=("ping", "info", "metrics", "health", "query", "tree",
                 "one-to-many", "isochrone", "matrix"),
        default="ping",
    )
    cl.add_argument("--sources",
                    help="comma-separated vertex ids (single-vertex ops "
                    "take one id)")
    cl.add_argument("--targets",
                    help="comma-separated vertex ids (query, one-to-many, "
                    "matrix)")
    cl.add_argument("--budget", type=int, help="isochrone time budget")
    cl.add_argument("--stall", action="store_true", help="stall-on-demand")
    cl.add_argument("-o", "--output", help="write tree labels (.npz)")
    cl.add_argument("--burst", type=int, default=0,
                    help="closed-loop burst: total request count")
    cl.add_argument("--threads", type=int, default=4,
                    help="burst client threads")
    cl.add_argument("--mix", default="query,tree,one_to_many,isochrone",
                    help="burst op mix (comma-separated)")
    cl.add_argument("--seed", type=int, default=0)
    cl.set_defaults(func=_cmd_client)

    d = sub.add_parser(
        "doctor", help="list / reap orphaned pool shared-memory segments"
    )
    d.add_argument("--unlink", action="store_true",
                   help="remove segments whose creating process is dead")
    d.add_argument("--json", action="store_true",
                   help="machine-readable report")
    d.set_defaults(func=_cmd_doctor)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point (``python -m repro`` / the ``repro`` script).

    Operational failures (bad paths, stale artifacts, out-of-range
    ids, refused connections) are reported as one ``error:`` line and
    exit status 2 — a traceback from the CLI is always a bug.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        filename = getattr(exc, "filename", None)
        print(f"error: {filename or exc}: {exc.strerror or 'cannot open'}",
              file=sys.stderr)
        return 2
    except (ConnectionError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .server import ProtocolError, ServerError

        if isinstance(exc, (ServerError, ProtocolError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
