"""The traced run: per-layer metrics for one workload.

The workload runs once with spans (set-up, and every other light-phase
block), and the program's server ``metrics`` op is read before and
after its phases.  Its generated inputs are then replayed through the
public functions of ``repro.graph``, ``repro.ch``, ``repro.core``,
``repro.server`` and ``repro.router``, one span around every call.
Layers a workload does not exercise are replayed on its network and
requests all the same, so every run reports every layer.
"""

from __future__ import annotations

import os
import time

import numpy as np

from . import inputs
from .procs import Served
from .procstat import CLK_TCK, WindowLog
from .stats import median
from .wire import WireConn

__all__ = ["traced_run", "PER_LAYER_UNITS"]

PER_LAYER_UNITS = {
    "graph.generate_s": "s",
    "ch.contract_s": "s", "ch.shortcuts": "count", "ch.levels": "count",
    "ch.build_topology_s": "s", "ch.closure_arcs": "count",
    "ch.triangles": "count", "ch.customize_ms": "ms",
    "ch.upward_search_us": "us", "ch.search_space": "count",
    "ch.p2p_query_us": "us",
    "core.tree_ms": "ms", "core.tree_customized_ms": "ms",
    "core.customized_over_witness": "ratio", "core.trees16_ms": "ms",
    "core.ns_per_arc_lane": "ns", "core.sweep_levels": "count",
    "core.sweep_arcs": "count",
    "core.selection_ms": "ms", "core.selection_arcs": "count",
    "core.m2m_cells_per_s": "1/s",
    "core.pool_trees_ms": "ms", "core.pool_overhead_share": "fraction",
    "core.pool_swap_ms": "ms",
    **{f"server.{d}_us.{k}": "us" for d in ("encode", "decode")
       for k in ("tree_row", "one_to_many", "matrix", "query")},
    "server.decode_us.request": "us", "server.validate_us": "us",
    "server.batch_mean_size": "count", "server.batch_mean_lanes": "count",
    "server.batch_wait_ms_p50": "ms", "server.sweep_ms_p50": "ms",
    "server.admission_rejects": "count",
    "server.search_cache_hit_rate": "fraction",
    "server.selection_cache_hit_rate": "fraction",
    "server.wire_tree_p50_ms": "ms", "server.unaccounted_ms": "ms",
    "server.sweep_cpu_share": "fraction",
    "router.hop_ms": "ms", "router.cpu_ms_per_req": "ms",
    "router.affinity_hit_rate": "fraction", "router.failovers": "count",
    "host.steal_share": "fraction", "client.lateness_p99_ms": "ms",
    "client.cpu_share": "fraction",
    "trace.overhead_ms": "ms", "trace.overhead_share": "fraction",
    "trace.spans": "count",
}

#: Calls per timed replay loop.
REPS = 200


class _Replay:
    def __init__(self, wl) -> None:
        self.wl = wl
        self.tracer = wl.tracer
        self.out: dict = {}

    def call(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def med(self, name: str) -> float:
        """Median span duration of ``name`` in seconds."""
        return median(self.tracer.durations(name))


def _requests(wl, count: int) -> list[dict]:
    """The workload's first light-phase requests, regenerated."""
    if wl.name == "offline-batch":
        return [{"op": "tree", "source": s} for s in
                inputs.offline_sources(wl.seed, wl.graph.n, 1, count)]
    return wl.stream().take(count)


def _sweep_sources(reqs: list[dict]) -> list[int]:
    return [r["source"] if "source" in r else r["sources"][0] for r in reqs]


def _hierarchies(rp: _Replay):
    """Witness CH, topology and base metric; built here when the
    workload's own set-up did not."""
    from repro.ch import CHParams, build_topology, contract_graph, customize

    wl = rp.wl
    graph = wl.graph
    ch = getattr(wl, "ch", None)
    if ch is None:
        ch = rp.call("ch.contract", contract_graph, graph, CHParams())
    topology = getattr(wl, "topology", None)
    if topology is None:
        topology = rp.call("ch.build_topology", build_topology, graph)
    base = np.asarray(graph.arc_len, dtype=np.int64)
    metric = getattr(wl, "metric", None)
    if metric is None:
        metric = customize(topology, base)
    for k in range(1, 6):
        weights = inputs.swap_weights(wl.seed, base, k)
        rp.call("ch.customize.replay", customize, topology, weights)
    rp.out.update({
        "graph.generate_s": rp.tracer.durations("graph.generate")[0],
        "ch.contract_s": rp.tracer.durations("ch.contract")[0],
        "ch.shortcuts": ch.num_shortcuts,
        "ch.levels": ch.num_levels,
        "ch.build_topology_s": rp.tracer.durations("ch.build_topology")[0],
        "ch.closure_arcs": topology.num_arcs,
        "ch.triangles": topology.num_triangles,
        "ch.customize_ms": rp.med("ch.customize.replay") * 1e3,
    })
    return ch, topology, metric


def _ch_and_core(rp: _Replay, ch, topology, metric, reqs) -> tuple:
    """``repro.ch`` query and ``repro.core`` metrics, and the witness
    and customized engines the later steps reuse."""
    from repro.ch import ch_query, customize, upward_search
    from repro.core import PhastEngine, PhastPool, RPhastEngine

    wl = rp.wl
    sources = _sweep_sources(reqs)
    queries = [(r["source"], r["target"]) for r in reqs if r["op"] == "query"]
    pairs = (queries or list(zip(sources, sources[1:])))[:REPS]
    sizes = [rp.call("ch.upward_search", upward_search, ch, s).size
             for s in sources[:REPS]]
    for s, t in pairs:
        rp.call("ch.ch_query", ch_query, ch, s, t)

    engine = PhastEngine(ch)
    customized = PhastEngine(topology.instantiate(metric))
    engine.tree(sources[0])
    customized.tree(sources[0])
    for s in sources[:REPS]:
        rp.call("core.tree", engine.tree, s)
        rp.call("core.tree_customized", customized.tree, s)
    lanes = [sources[i:i + 16] for i in range(0, 320, 16)]
    engine.trees(lanes[0])
    for group in lanes:
        rp.call("core.trees16", engine.trees, group)
    arcs = int(engine.sweep.arc_tail_pos.size)

    if wl.name == "serve-lookup":
        target_sets = inputs.lookup_families(wl.seed, wl.graph.n)["target_sets"]
    else:
        target_sets = [inputs.matrix_targets(wl.seed, wl.graph.n)]
    selections = [rp.call("core.rphast_select",
                          lambda t: RPhastEngine(ch, t).freeze(), t)
                  for _ in range(3) for t in target_sets]
    sel = selections[0]
    m2m_sources = sources[:64]
    for _ in range(5):
        rp.call("core.many_to_many", sel.many_to_many, m2m_sources)

    # Pool: two worker processes (offline shape), then the in-process
    # serial pool serving uses, against the bare engine on the same
    # sources; then metric swaps on a pool over the customized CH.
    batches = [sources[i:i + 64] for i in range(0, 640, 64)]
    with PhastPool(ch, num_workers=2, sources_per_sweep=16) as pool:
        pool.trees(batches[0])
        for b in batches:
            rp.call("core.pool_trees", pool.trees, b)
    with PhastPool(ch, num_workers=1, sources_per_sweep=16) as pool:
        pool.trees(batches[0])
        for b in batches:
            rp.call("core.pool_serial_trees", pool.trees, b)
            with rp.tracer.span("core.engine_trees64"):
                for i in range(0, 64, 16):
                    engine.trees(b[i:i + 16])
    base = np.asarray(wl.graph.arc_len, dtype=np.int64)
    with PhastPool(topology.instantiate(metric), num_workers=1,
                   sources_per_sweep=16) as pool:
        for k in range(1, 6):
            new_ch = topology.instantiate(
                customize(topology, inputs.swap_weights(wl.seed, base, k)))
            rp.call("core.pool_swap", pool.swap_metric, new_ch)

    serial = rp.med("core.pool_serial_trees")
    return {
        "ch.upward_search_us": rp.med("ch.upward_search") * 1e6,
        "ch.search_space": float(np.mean(sizes)),
        "ch.p2p_query_us": rp.med("ch.ch_query") * 1e6,
        "core.tree_ms": rp.med("core.tree") * 1e3,
        "core.tree_customized_ms": rp.med("core.tree_customized") * 1e3,
        "core.customized_over_witness": (rp.med("core.tree_customized")
                                         / rp.med("core.tree")),
        "core.trees16_ms": rp.med("core.trees16") * 1e3,
        "core.ns_per_arc_lane": rp.med("core.trees16") * 1e9 / (arcs * 16),
        "core.sweep_levels": engine.sweep.num_levels,
        "core.sweep_arcs": arcs,
        "core.selection_ms": rp.med("core.rphast_select") * 1e3,
        "core.selection_arcs": float(np.mean([s.num_arcs for s in selections])),
        "core.m2m_cells_per_s": (len(m2m_sources) * sel.targets.size
                                 / rp.med("core.many_to_many")),
        "core.pool_trees_ms": rp.med("core.pool_trees") * 1e3,
        "core.pool_overhead_share": (serial - rp.med("core.engine_trees64"))
        / serial,
        "core.pool_swap_ms": rp.med("core.pool_swap") * 1e3,
    }, engine, customized


def _protocol(rp: _Replay, engine, reqs) -> dict:
    from repro.server import protocol

    wl = rp.wl
    n = wl.graph.n
    sources = _sweep_sources(reqs)
    row = engine.tree(sources[0]).dist.copy()
    targets64 = [int(t) for t in
                 np.random.default_rng([wl.seed, 5]).integers(n, size=64)]
    fam = inputs.lookup_families(wl.seed, n)
    mat = np.tile(row[fam["target_sets"][0]], (8, 1))
    payloads = {
        "tree_row": lambda: {"dist": row.tolist()},
        "one_to_many": lambda: {"dist": row[targets64].tolist()},
        "matrix": lambda: {"matrix": mat.tolist(), "rows": 8, "cols": 24,
                           "backend": "rphast", "selection_cached": True},
        "query": lambda: {"distance": int(row[1]), "reachable": True,
                          "settled": 120},
    }
    out = {}
    for kind, build in payloads.items():
        frames = []
        for i in range(REPS):
            with rp.tracer.span(f"server.encode.{kind}"):
                frames.append(protocol.encode_message(
                    protocol.ok_response(i, **build())))
        for frame in frames:
            rp.call(f"server.decode.{kind}", protocol.decode_body, frame[4:])
        out[f"server.encode_us.{kind}"] = rp.med(f"server.encode.{kind}") * 1e6
        out[f"server.decode_us.{kind}"] = rp.med(f"server.decode.{kind}") * 1e6
    for i, req in enumerate(reqs[:500]):
        frame = protocol.encode_message({"id": i, **req})
        msg = rp.call("server.decode.request", protocol.decode_body, frame[4:])
        rp.call("server.validate", protocol.validate_request,
                protocol.OPS_BY_NAME[msg["op"]], msg, n)
    out["server.decode_us.request"] = rp.med("server.decode.request") * 1e6
    out["server.validate_us"] = rp.med("server.validate") * 1e6
    return out


def _one_trip(conn: WireConn, req) -> float:
    t = time.perf_counter()
    conn.call(req)
    return time.perf_counter() - t


def _server_deltas(before: dict, after: dict) -> dict:
    b, a = before["batches"], after["batches"]
    count = a["count"] - b["count"]
    sizes = {int(k): v - b["size_histogram"].get(k, 0)
             for k, v in a["size_histogram"].items()}
    size_sum = sum(k * v for k, v in sizes.items())
    lanes = a["mean_lanes"] * a["count"] - b["mean_lanes"] * b["count"]
    sel_a, sel_b = after["selection_cache"], before["selection_cache"]
    sel_hits = sel_a["hits"] - sel_b["hits"]
    sel_total = sel_hits + sel_a["misses"] - sel_b["misses"]
    rej = (sum(after["admission"]["rejected"].values())
           - sum(before["admission"]["rejected"].values()))
    return {
        "server.batch_mean_size": size_sum / count if count else 0.0,
        "server.batch_mean_lanes": lanes / count if count else 0.0,
        # Cumulative over the server's life; set-up sent a handful.
        "server.batch_wait_ms_p50": a["wait_ms"].get("p50_ms", 0.0),
        "server.sweep_ms_p50": a["sweep_ms"].get("p50_ms", 0.0),
        "server.admission_rejects": rej,
        "server.selection_cache_hit_rate": (sel_hits / sel_total
                                            if sel_total else 0.0),
    }


def _router_numbers(before: dict, after: dict) -> dict:
    ab, aa = before["affinity"], after["affinity"]
    total = aa["total"] - ab["total"]
    return {
        "router.affinity_hit_rate": ((aa["hits"] - ab["hits"]) / total
                                     if total else 0.0),
        "router.failovers": aa["failovers"] - ab["failovers"],
    }


def _wire(rp: _Replay, reqs, tree_reqs, phase_metrics) -> dict:
    """Direct vs routed replay, the wire tree p50, and server deltas."""
    from repro.graph import save_graph, save_hierarchy

    wl = rp.wl
    spawned = []
    try:
        if wl.name == "serve-lookup":
            direct_addr = wl.replica_address()
            router = wl.proc
        else:
            if wl.name == "offline-batch":
                save_graph(wl.graph, wl.artifact("net.npz"))
                save_hierarchy(wl.ch, wl.artifact("net.ch.npz"))
                server = Served(["serve", wl.artifact("net.npz"),
                                 wl.artifact("net.ch.npz"), "--port", "0"],
                                wl.env)
                spawned.append(server)
                direct_addr = (server.host, server.port)
            else:
                direct_addr = (wl.proc.host, wl.proc.port)
            router = Served(["route", "--attach",
                             f"{direct_addr[0]}:{direct_addr[1]}",
                             "--port", "0"], wl.env)
            spawned.append(router)
        direct = WireConn(*direct_addr)
        routed = router.connect()
        before_srv = direct.call({"op": "metrics"})["metrics"]
        before_rt = routed.call({"op": "metrics"})["metrics"]
        # Same requests both ways, alternating which goes first so
        # neither path always meets the warmer caches.
        d_lat, r_lat = [], []
        router_log = WindowLog([router.pid], period=float("inf"))
        router_log.start(time.perf_counter())
        for i, req in enumerate(reqs[:300]):
            pair = [(direct, d_lat), (routed, r_lat)]
            for conn, sink in (pair if i % 2 else pair[::-1]):
                with rp.tracer.span("client.replay"):
                    sink.append(_one_trip(conn, req))
        router_log.close(time.perf_counter())
        router_ticks = router_log.totals()[1]
        for req in tree_reqs:
            rp.call("client.tree_direct", direct.call, req)
        after_srv = direct.call({"op": "metrics"})["metrics"]
        after_rt = routed.call({"op": "metrics"})["metrics"]
        direct.close()
        routed.close()
    finally:
        for proc in spawned:
            proc.stop()
    out = {
        "router.hop_ms": (median(r_lat) - median(d_lat)) * 1e3,
        "router.cpu_ms_per_req": router_ticks / CLK_TCK * 1e3 / len(r_lat),
        "server.wire_tree_p50_ms": rp.med("client.tree_direct") * 1e3,
    }
    if phase_metrics is None:  # no server in the workload itself
        out.update(_server_deltas(before_srv, after_srv))
    else:
        out.update(_server_deltas(*phase_metrics["server"]))
    if phase_metrics is not None and "router" in phase_metrics:
        out.update(_router_numbers(*phase_metrics["router"]))
    else:
        out.update(_router_numbers(before_rt, after_rt))
    return out


def _search_cache_rate(wl, ch, phases) -> float:
    """Replay the run's sweep sources through an engine with the
    server's search cache (``ServerConfig.search_cache`` = 1024)."""
    from repro.core import PhastEngine

    engine = PhastEngine(ch, search_cache=1024)
    sweep_ops = {"tree", "one_to_many", "isochrone"}
    if wl.name == "offline-batch":
        sources = inputs.offline_sources(wl.seed, wl.graph.n, 1,
                                         min(phases[1].result.sent, 2000))
    else:
        sent = wl.stream().take(phases[0].result.sent
                                + phases[1].result.sent)
        sources = [r["source"] for r in sent if r["op"] in sweep_ops][:2000]
    if not sources:
        return 0.0
    for s in sources:
        engine.tree(s)
    return engine.search_cache_hits / len(sources)


def _sweep_cpu_share(wl, light, tree_ms: float) -> float:
    """Share of the serving processes' light-phase CPU spent in full
    sweeps: the phase's sweep requests times the replayed single-tree
    time, over the CPU its serving processes used.  On serve-lookup
    these are the ``one_to_many`` requests; offline-batch's light
    phase runs restricted RPHAST sweeps only."""
    if wl.name == "offline-batch":
        return 0.0
    sweep_ops = {"tree", "one_to_many", "isochrone"}
    sweeps = sum(1 for r in wl.stream().take(light.result.sent)
                 if r["op"] in sweep_ops)
    cpu_ms = light.log.totals()[1] / CLK_TCK * 1e3
    return sweeps * tree_ms / cpu_ms


def _phase_metrics(wl, seconds):
    """Run the workload's phases, bracketed by ``metrics`` snapshots."""
    if wl.name == "offline-batch":
        return wl.phases(seconds), None
    if wl.name == "serve-lookup":
        replica = WireConn(*wl.replica_address())
        snap = lambda: (replica.call({"op": "metrics"})["metrics"],
                        wl.admin.call({"op": "metrics"})["metrics"])
    else:
        snap = lambda: (wl.admin.call({"op": "metrics"})["metrics"], None)
    srv0, rt0 = snap()
    phases = wl.phases(seconds)
    srv1, rt1 = snap()
    out = {"server": (srv0, srv1)}
    if rt0 is not None:
        out["router"] = (rt0, rt1)
        replica.close()
    return phases, out


def traced_run(wl, seconds: float) -> tuple[list, dict]:
    rp = _Replay(wl)
    phases, phase_metrics = _phase_metrics(wl, seconds)
    light = phases[0]
    untraced, traced = median(wl.untraced_ms), median(wl.traced_ms)
    reqs = _requests(wl, 1000)
    ch, topology, metric = _hierarchies(rp)
    core, engine, customized = _ch_and_core(rp, ch, topology, metric, reqs)
    rp.out.update(core)
    rp.out.update(_protocol(rp, engine, reqs))
    tree_reqs = [{"op": "tree", "source": s}
                 for s in _sweep_sources(reqs)[:REPS]]
    rp.out.update(_wire(rp, reqs, tree_reqs, phase_metrics))
    served_tree = ("core.tree_customized_ms" if wl.name == "metric-swap"
                   else "core.tree_ms")
    layer_ms = (rp.out[served_tree]
                + (rp.out["server.decode_us.request"]
                   + rp.out["server.validate_us"]
                   + rp.out["server.encode_us.tree_row"]
                   + rp.out["server.decode_us.tree_row"]) / 1e3)
    rp.out["server.unaccounted_ms"] = (rp.out["server.wire_tree_p50_ms"]
                                       - layer_ms)
    rp.out["server.sweep_cpu_share"] = _sweep_cpu_share(
        wl, light, rp.out[served_tree])
    served_ch = customized.ch if wl.name == "metric-swap" else ch
    rp.out["server.search_cache_hit_rate"] = _search_cache_rate(
        wl, served_ch, phases)
    steal = [p.steal_share for p in phases]
    rp.out.update({
        "host.steal_share": float(np.mean(steal)),
        "client.lateness_p99_ms": (float(np.percentile(light.result.lateness_s,
                                                       99)) * 1e3
                                   if light.result.lateness_s else 0.0),
        "client.cpu_share": light.client_cpu_share,
        "trace.overhead_ms": traced - untraced,
        "trace.overhead_share": (traced - untraced) / untraced,
    })
    rp.out["trace.spans"] = len(rp.tracer._finished)
    rp.tracer.dump(os.path.join(os.path.dirname(wl.workdir),
                                f"spans-{wl.name}-{wl.seed}.jsonl"))
    return phases, {name: float(rp.out[name]) for name in PER_LAYER_UNITS}
