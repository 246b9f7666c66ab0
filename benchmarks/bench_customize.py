"""Metric customization vs full re-contraction, and hot swap under load.

Two claims are measured:

* **Customization speed** — on a ~10^5-vertex instance, recomputing
  every shortcut weight for a new metric (:func:`repro.ch.customize`)
  must beat re-running the witness contraction from scratch by >= 10x,
  while producing bit-identical distances.  Both ratios that matter
  operationally are recorded: against the witness re-contraction (what
  the repo's default preprocessing would redo on a weight change) and
  against rebuilding the customizable pipeline itself (topology +
  customize — what a from-scratch deploy of the swappable stack
  costs).
* **Swap availability** — a server under closed-loop load takes a
  ``swap_metric`` mid-burst.  Every request must be answered, every
  answer must match exactly one metric generation (old or new, never a
  mixture), and p50/p99 are recorded before / during / after the swap,
  with the count of requests that started and finished inside it
  (``answered_during_swap``): sweeps go on being answered from the old
  engine while the new metric is customized.

A third section, ``trees_by_k``, prices PHAST's upward phase on the
customized hierarchy: microseconds per tree of ``PhastEngine.trees``
at k = 1 to 16 lanes, in three setups over one network — the
customized hierarchy, whose searches walk the elimination tree; the
same hierarchy with its parent withheld, so its searches run the
heap; and the witness CH.  It runs on the swap-scale instance, and on
the 10^5-vertex acceptance instance only when that instance's
topology is already cached (its witness contraction takes minutes);
the record names the instances that ran.

The topology build is the expensive one-time step (it dwarfs witness
contraction — that is the point of the split: you pay it once per
*structure*, not per metric), so the built artifact is cached under
``benchmarks/.cache`` keyed by instance; re-runs skip straight to the
timed phases.

Environment knobs: ``REPRO_BENCH_CUSTOMIZE_SCALE`` (default 316 ⇒
n = 99 856: the 10^5-vertex acceptance instance),
``REPRO_BENCH_SWAP_SCALE`` (default 64) for the serving experiment,
``REPRO_BENCH_CUSTOMIZE_REPS`` (default 3) timed repetitions.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from common import fmt, print_table
from repro.ch import build_topology, contract_graph, customize
from repro.core import PhastEngine
from repro.graph import europe_like, load_topology, save_topology
from repro.graph.serialize import ArtifactFormatError
from repro.server import (
    PhastService,
    ServerClient,
    ServerConfig,
    serve_in_thread,
)
from repro.utils.hotloop import bulk_compute
from repro.utils.timing import LatencyHistogram

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_customize.json"


def _scale() -> int:
    return int(os.environ.get("REPRO_BENCH_CUSTOMIZE_SCALE", "316"))


def _swap_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SWAP_SCALE", "64"))


def _reps() -> int:
    return int(os.environ.get("REPRO_BENCH_CUSTOMIZE_REPS", "3"))


def _cached_topology(graph, scale: int, seed: int):
    """Build (or load) the topology; returns (topology, build_seconds).

    ``build_seconds`` is measured once on the build that populates the
    cache and persisted in the artifact's stats, so cached re-runs
    still report the true one-time cost.
    """
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"topology-europe-{scale}-{seed}.npz"
    if path.exists():
        try:
            topo = load_topology(path)
        except ArtifactFormatError:
            pass  # written in an older format: rebuild it below
        else:
            return topo, float(topo.stats.get("seconds", 0.0))
    start = time.perf_counter()
    topo = build_topology(graph)
    build_s = time.perf_counter() - start
    save_topology(topo, path)
    return topo, build_s


def bench_customize(quiet: bool = False) -> dict:
    """Customization vs re-contraction on the acceptance instance."""
    scale, seed = _scale(), 4
    graph = europe_like(scale, seed=seed)
    topo, build_s = _cached_topology(graph, scale, seed)
    base_w = np.asarray(graph.arc_len, dtype=np.int64)

    timings: dict[str, float] = {}
    native_used = None
    for label, env in [
        ("customize_s", None),
        ("customize_numpy_s", "1"),
    ]:
        if env is not None:
            os.environ["REPRO_NO_NATIVE"] = env
            from repro.utils import native

            native._lib = None  # force the fallback path
        best = None
        for _ in range(_reps()):
            start = time.perf_counter()
            metric = customize(topo, base_w)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        timings[label] = best
        if env is None and native_used is None:
            native_used = bool(metric.stats.get("native"))
        if env is not None:
            os.environ.pop("REPRO_NO_NATIVE", None)
            native._lib = None

    start = time.perf_counter()
    witness_ch = contract_graph(graph)
    contraction_s = time.perf_counter() - start

    # Bit-identity: the customized hierarchy's distances == the witness
    # hierarchy's, source by source, exactly.
    metric = customize(topo, base_w)
    custom_engine = PhastEngine(topo.instantiate(metric))
    witness_engine = PhastEngine(witness_ch)
    rng = np.random.default_rng(17)
    sample = rng.choice(graph.n, size=8, replace=False)
    bit_identical = all(
        np.array_equal(custom_engine.tree(int(s)).dist,
                       witness_engine.tree(int(s)).dist)
        for s in sample
    )

    record = {
        "instance": f"europe-{scale}",
        "n": graph.n,
        "m": graph.m,
        "closure_arcs": topo.num_arcs,
        "triangles": topo.num_triangles,
        "levels": int(topo.tri_level_first.size - 1),
        "build_topology_s": round(build_s, 3),
        "native_kernel": native_used,
        **{k: round(v, 4) for k, v in timings.items()},
        "recontraction_s": round(contraction_s, 3),
        "speedup_vs_recontraction": round(
            contraction_s / timings["customize_s"], 2),
        "speedup_vs_pipeline_rebuild": round(
            (build_s + timings["customize_s"]) / timings["customize_s"], 2),
        "native_kernel_speedup": round(
            timings["customize_numpy_s"] / timings["customize_s"], 2),
        "bit_identical_distances": bool(bit_identical),
        "checked_sources": int(sample.size),
    }
    if not quiet:
        print_table(
            f"customization vs re-contraction (n={graph.n})",
            ["step", "seconds"],
            [
                ["build_topology (once per structure)", fmt(build_s, 1)],
                ["customize (native kernels)",
                 fmt(timings["customize_s"], 3)],
                ["customize (NumPy fallback)",
                 fmt(timings["customize_numpy_s"], 3)],
                ["witness re-contraction", fmt(contraction_s, 1)],
            ],
        )
        print(
            f"customize beats re-contraction "
            f"{record['speedup_vs_recontraction']}x; "
            f"bit-identical on {sample.size} sources: {bit_identical}"
        )
    return record


#: Lane counts, sources per timed round and rounds of ``trees_by_k``.
TREES_KS = tuple(range(1, 17))
TREES_SOURCES = 720
TREES_ROUNDS = 7
#: The 10^5-vertex acceptance instance of :func:`bench_customize`.
LARGE = (316, 4)


def _trees_by_k_on(graph, topo, rng) -> dict:
    """µs per tree at each k for the three setups over one network.

    Setups take turns within each round, so a phase of a shared host
    lands on all three; a round times ``TREES_SOURCES`` trees (rounded
    down to a multiple of k) per setup and k, and the median over
    ``TREES_ROUNDS`` rounds is reported.  Rows of the three setups are
    checked equal first.
    """
    custom = topo.instantiate(customize(topo, graph.arc_len))
    setups = {
        "customized_walk": PhastEngine(custom),
        "customized_heap": PhastEngine(
            dataclasses.replace(custom, elimination_parent=None)),
        "witness": PhastEngine(contract_graph(graph)),
    }
    walks = setups["customized_walk"].kernel._native
    sources = rng.choice(graph.n, size=TREES_SOURCES)
    rows = [e.trees(sources[:16]) for e in setups.values()]
    identical = all(np.array_equal(rows[0], r) for r in rows[1:])
    samples: dict = {name: {k: [] for k in TREES_KS} for name in setups}
    with bulk_compute():
        for _ in range(TREES_ROUNDS):
            for k in TREES_KS:
                out = np.empty((k, graph.n), dtype=np.int64)
                count = TREES_SOURCES - TREES_SOURCES % k
                for name, engine in setups.items():
                    t0 = time.perf_counter()
                    for i in range(0, count, k):
                        engine.trees(sources[i:i + k], out=out)
                    samples[name][k].append(
                        (time.perf_counter() - t0) / count)
    us = {name: {str(k): round(float(np.median(v)) * 1e6, 2)
                 for k, v in by_k.items()}
          for name, by_k in samples.items()}
    return {
        "n": int(graph.n),
        "upward_arcs": {"customized": int(custom.upward.m),
                        "witness": int(setups["witness"].ch.upward.m)},
        "walks": bool(walks is not None and walks.walks),
        "rows_identical": bool(identical),
        "us_per_tree": us,
        "walk_over_heap": {
            str(k): round(us["customized_walk"][str(k)]
                          / us["customized_heap"][str(k)], 3)
            for k in TREES_KS},
        "walk_over_witness": {
            str(k): round(us["customized_walk"][str(k)]
                          / us["witness"][str(k)], 3)
            for k in TREES_KS},
    }


def bench_trees_by_k(quiet: bool = False) -> dict:
    """Upward phase on the customized hierarchy: walk vs heap vs witness."""
    rng = np.random.default_rng(31)
    scale = _swap_scale()
    graph = europe_like(scale, seed=9)
    instances = {f"europe-{scale}": _trees_by_k_on(
        graph, build_topology(graph), rng)}
    skipped = {}
    large_scale, large_seed = LARGE
    path = CACHE_DIR / f"topology-europe-{large_scale}-{large_seed}.npz"
    name = f"europe-{large_scale}"
    if path.exists():
        graph = europe_like(large_scale, seed=large_seed)
        topo, _ = _cached_topology(graph, large_scale, large_seed)
        instances[name] = _trees_by_k_on(graph, topo, rng)
    else:
        skipped[name] = "no cached topology"
    record = {
        "what": "PhastEngine.trees(sources, out=) per tree: each lane's "
                "upward search, the k-lane sweep and the scatter; median "
                f"of {TREES_ROUNDS} rounds of {TREES_SOURCES} trees per "
                "setup and k, setups alternating within a round",
        "nproc": len(os.sched_getaffinity(0)),
        "instances": instances,
        "skipped": skipped,
    }
    if not quiet:
        for name, inst in instances.items():
            print_table(
                f"trees by k on {name} (n={inst['n']}), us per tree",
                ["k", "customized walk", "customized heap", "witness",
                 "walk / heap"],
                [[k, fmt(inst["us_per_tree"]["customized_walk"][str(k)], 2),
                  fmt(inst["us_per_tree"]["customized_heap"][str(k)], 2),
                  fmt(inst["us_per_tree"]["witness"][str(k)], 2),
                  fmt(inst["walk_over_heap"][str(k)], 3)]
                 for k in TREES_KS],
            )
        for name, why in skipped.items():
            print(f"trees by k: {name} skipped ({why})")
    return record


def bench_swap_under_load(quiet: bool = False) -> dict:
    """Hot swap mid-burst: zero lost requests, never mixed-metric."""
    scale = _swap_scale()
    graph = europe_like(scale, seed=9)
    topo = build_topology(graph)
    base_w = np.asarray(graph.arc_len, dtype=np.int64)
    rng = np.random.default_rng(23)
    new_w = rng.integers(1, 10_000, size=graph.m, dtype=np.int64)

    gen_engines = [
        PhastEngine(topo.instantiate(customize(topo, w)))
        for w in (base_w, new_w)
    ]
    probe_sources = sorted(
        int(v) for v in rng.choice(graph.n, size=16, replace=False))
    # Per generation: the full distance array of every probe source.
    refs = [
        {s: e.tree(s).dist for s in probe_sources} for e in gen_engines
    ]

    service = PhastService(
        topology=topo, metric=customize(topo, base_w),
        config=ServerConfig(
            port=0, batch_max=8, max_wait_ms=2.0, max_pending=256),
    )
    stop = threading.Event()
    swap_started = threading.Event()
    swap_done = threading.Event()
    failures: list[str] = []
    mixed: list[str] = []
    # (phase, latency_s, generation_matched, inside) per answered
    # request; inside: it started and finished while the swap ran.
    lock = threading.Lock()
    samples: list[tuple[str, float, int, bool]] = []

    def phase() -> str:
        if not swap_started.is_set():
            return "before"
        return "during" if not swap_done.is_set() else "after"

    def load(tid: int) -> None:
        lrng = np.random.default_rng(100 + tid)
        try:
            with ServerClient(handle.host, handle.port) as client:
                while not stop.is_set():
                    s = probe_sources[int(lrng.integers(len(probe_sources)))]
                    ph = phase()
                    t0 = time.perf_counter()
                    got = client.tree(s)
                    dt = time.perf_counter() - t0
                    if np.array_equal(got, refs[0][s]):
                        gen = 0
                    elif np.array_equal(got, refs[1][s]):
                        gen = 1
                    else:
                        mixed.append(f"source {s}: answer matches no "
                                     "generation")
                        return
                    inside = ph == "during" and not swap_done.is_set()
                    with lock:
                        samples.append((ph, dt, gen, inside))
        except Exception as exc:  # any lost request fails the bench
            failures.append(f"loader {tid}: {exc}")

    with serve_in_thread(service) as handle:
        threads = [threading.Thread(target=load, args=(t,), daemon=True)
                   for t in range(3)]
        for t in threads:
            t.start()
        time.sleep(1.0)
        swap_started.set()
        with ServerClient(handle.host, handle.port) as admin:
            t0 = time.perf_counter()
            report = admin.swap_metric(weights=new_w, timeout=300)
            swap_s = time.perf_counter() - t0
        swap_done.set()
        time.sleep(1.0)
        stop.set()
        for t in threads:
            t.join(30)
        with ServerClient(handle.host, handle.port) as admin:
            final_gen = admin.info()["metric_generation"]

    phases = {}
    for name in ("before", "during", "after"):
        hist = LatencyHistogram()
        gens = set()
        for ph, dt, gen, _ in samples:
            if ph == name:
                hist.observe(dt)
                gens.add(gen)
        summary = hist.summary() if hist.count else {}
        phases[name] = {
            "requests": hist.count,
            "p50_ms": summary.get("p50_ms"),
            "p99_ms": summary.get("p99_ms"),
            "generations_observed": sorted(gens),
        }
    # "before" must never see the new metric; "after" never the old one
    # (the swap is complete before swap_done is set, so any request
    # *started* afterwards sees generation 1).
    atomic = (1 not in phases["before"]["generations_observed"]
              and 0 not in phases["after"]["generations_observed"]
              and not mixed)
    record = {
        "instance": f"europe-{scale}",
        "n": graph.n,
        "loader_threads": 3,
        "requests_total": len(samples),
        "lost_requests": len(failures),
        "mixed_metric_answers": len(mixed),
        "atomic": bool(atomic),
        "swap_wall_s": round(swap_s, 4),
        "answered_during_swap": sum(inside for *_, inside in samples),
        "server_swap_s": report.get("swap_seconds"),
        "server_customize_s": report.get("customize_seconds"),
        "metric_generation_after": final_gen,
        "phases": phases,
        "failures": failures[:5],
    }
    if not quiet:
        print_table(
            f"hot swap under load (n={graph.n}, 3 closed-loop clients)",
            ["phase", "requests", "p50 ms", "p99 ms", "generations"],
            [
                [name, phases[name]["requests"],
                 fmt(phases[name]["p50_ms"] or 0, 2),
                 fmt(phases[name]["p99_ms"] or 0, 2),
                 str(phases[name]["generations_observed"])]
                for name in ("before", "during", "after")
            ],
        )
        print(
            f"swap wall time {swap_s * 1e3:.1f} ms, "
            f"{record['answered_during_swap']} answered inside it; "
            f"{len(samples)} requests, {len(failures)} lost, "
            f"{len(mixed)} mixed-metric; atomic: {atomic}"
        )
    return record


def run(quiet: bool = False) -> dict:
    record = {
        "bench": "customize",
        "customization": bench_customize(quiet=quiet),
        "swap_under_load": bench_swap_under_load(quiet=quiet),
        "trees_by_k": bench_trees_by_k(quiet=quiet),
    }
    with open(OUTPUT, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    if not quiet:
        print(f"wrote {OUTPUT}")
    return record


if __name__ == "__main__":
    run()
