"""Batch tree throughput — serial vs per-call pool vs persistent pool.

The tree-heavy applications (Sections V and VII) issue batches of
shortest path trees against one read-only hierarchy.  This bench
documents what :class:`repro.core.pool.PhastPool` buys over the two
older ways of running a batch:

* ``serial`` — one warm :class:`~repro.core.phast.PhastEngine`, one
  tree at a time (also produces the reference distances every other
  mode must match bit-for-bit);
* ``per-call pool`` — the seed ``trees_per_core`` driver, reproduced
  verbatim below: every call forks a fresh ``multiprocessing.Pool``,
  every worker rebuilds its engine (a full sweep-structure sort), and
  every distance row is pickled back through a pipe;
* ``persistent pool`` — a resident :class:`PhastPool`: hierarchy
  published once over shared memory, warm engines across batches,
  k-source sweep lanes, results written in place into a shared output
  matrix.

Timings are medians over ``REPRO_BENCH_BATCH_REPEATS`` batches of
``REPRO_BENCH_BATCH_SOURCES`` sources (defaults 3 × 256).  The pool
modes always run with ``force_pool=True`` so the multiprocessing path
is measured even on a single-CPU host; the CPU count is recorded so a
single-core run is never mistaken for a parallel measurement (there
the speedup comes purely from amortizing fork + engine builds +
pickling, not from extra cores).

Results go to ``BENCH_batch_queries.json`` next to the other bench
trajectories.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from common import fmt, load_instance, print_table, random_sources
from repro.core.phast import PhastEngine
from repro.core.pool import PhastPool

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch_queries.json"

DEFAULT_SOURCES = 256
DEFAULT_REPEATS = 3
DEFAULT_SWEEP_K = 8


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name, "").strip()
    return int(value) if value else default


# -- the seed per-call driver, kept verbatim as the baseline ------------------
#
# This is the pre-PhastPool ``trees_per_core``: fork a Pool per call,
# rebuild each worker's engine from the copy-on-write hierarchy, pickle
# every row back.  The shim in ``repro.core.parallel`` no longer works
# this way, so the old costs are preserved here for the comparison.

_LEGACY_CH = None
_LEGACY_ENGINE = None
_LEGACY_K = 1


def _legacy_worker_run(sources):
    global _LEGACY_ENGINE
    if _LEGACY_ENGINE is None:
        _LEGACY_ENGINE = PhastEngine(_LEGACY_CH)
    eng = _LEGACY_ENGINE
    results = []
    k = _LEGACY_K
    for i in range(0, len(sources), k):
        chunk = sources[i : i + k]
        if len(chunk) == 1:
            dists = eng.tree(chunk[0]).dist[None, :]
        else:
            dists = eng.trees(chunk)
        for _s, row in zip(chunk, dists):
            results.append(row.copy())
    return results


def legacy_trees_per_call(ch, sources, *, num_workers, sources_per_sweep=1):
    global _LEGACY_CH, _LEGACY_ENGINE, _LEGACY_K
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    num_workers = min(num_workers, len(sources))
    chunks = [sources[i::num_workers] for i in range(num_workers)]
    _LEGACY_CH, _LEGACY_ENGINE, _LEGACY_K = ch, None, sources_per_sweep
    with ctx.Pool(processes=len(chunks)) as pool:
        parts = pool.map(_legacy_worker_run, chunks)
    out = [None] * len(sources)
    for w, chunk in enumerate(chunks):
        for j, _s in enumerate(chunk):
            out[w + j * len(chunks)] = parts[w][j]
    return out


# -- measurement --------------------------------------------------------------


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def run(quiet: bool = False) -> dict:
    batch = _env_int("REPRO_BENCH_BATCH_SOURCES", DEFAULT_SOURCES)
    repeats = _env_int("REPRO_BENCH_BATCH_REPEATS", DEFAULT_REPEATS)
    k = _env_int("REPRO_BENCH_BATCH_K", DEFAULT_SWEEP_K)
    inst = load_instance()
    graph, ch = inst.graph, inst.ch
    sources = random_sources(graph.n, min(batch, graph.n), seed=7)
    workers = _env_int("REPRO_BENCH_BATCH_WORKERS", 0) or None

    record: dict = {
        "bench": "batch_queries",
        "instance": inst.name,
        "n": int(graph.n),
        "m": int(graph.m),
        "batch_sources": len(sources),
        "repeats": repeats,
        "sources_per_sweep": k,
        "cpus": os.cpu_count(),
        "entries": [],
        "notes": [],
    }

    # Serial reference (and the distances every pool mode must match).
    engine = inst.engine()
    reference = np.stack([engine.tree(s).dist for s in sources])
    serial_ms = _median_ms(
        lambda: [engine.tree(s) for s in sources], repeats
    )

    # Seed per-call driver: pays fork + engine rebuild + row pickling
    # on every call (k=1, its default and how the apps drove it).
    from repro.utils.workers import resolve_workers

    pool_workers = workers or resolve_workers(None)[0]
    legacy_trees_per_call(ch, sources[:2], num_workers=pool_workers)  # warm
    legacy_rows = legacy_trees_per_call(
        ch, sources, num_workers=pool_workers
    )
    legacy_identical = bool(
        np.array_equal(np.stack(legacy_rows), reference)
    )
    percall_ms = _median_ms(
        lambda: legacy_trees_per_call(ch, sources, num_workers=pool_workers),
        repeats,
    )

    # Persistent pool: resident workers, shared segments, k lanes.
    with PhastPool(
        ch,
        num_workers=pool_workers,
        sources_per_sweep=k,
        force_pool=True,
    ) as pool:
        mat = pool.trees(sources)
        pool_identical = bool(np.array_equal(mat, reference))
        persistent_ms = _median_ms(lambda: pool.trees(sources), repeats)
    t0 = time.perf_counter()
    with PhastPool(
        ch, num_workers=pool_workers, sources_per_sweep=k, force_pool=True
    ) as pool:
        pool.trees(sources[:1])
        setup_ms = (time.perf_counter() - t0) * 1e3

    def entry(mode, ms, identical=None, **extra):
        e = {
            "mode": mode,
            "ms_per_batch": round(ms, 2),
            "trees_per_sec": round(len(sources) / (ms / 1e3), 1),
            **extra,
        }
        if identical is not None:
            e["distances_identical_to_serial"] = identical
        record["entries"].append(e)
        return e

    e_serial = entry("serial", serial_ms, workers=1, sweep_k=1)
    e_percall = entry(
        "percall_pool", percall_ms, legacy_identical,
        workers=pool_workers, sweep_k=1,
    )
    e_persist = entry(
        "persistent_pool", persistent_ms, pool_identical,
        workers=pool_workers, sweep_k=k,
        startup_ms_amortized_away=round(setup_ms, 2),
    )
    record["speedup_persistent_vs_percall"] = round(
        percall_ms / persistent_ms, 2
    )
    record["speedup_persistent_vs_serial"] = round(
        serial_ms / persistent_ms, 2
    )
    if (os.cpu_count() or 1) <= 1:
        record["notes"].append(
            "single-CPU host: force_pool exercises the multiprocessing "
            "path, so the persistent-pool gain is overhead amortization "
            "(fork + engine builds + per-row pickling), not parallelism"
        )

    if not quiet:
        print_table(
            f"batch tree throughput ({len(sources)} sources, "
            f"median of {repeats})",
            ["mode", "workers", "k", "ms/batch", "trees/s", "identical"],
            [
                [
                    e["mode"],
                    e["workers"],
                    e["sweep_k"],
                    fmt(e["ms_per_batch"], 1),
                    fmt(e["trees_per_sec"], 0),
                    str(e.get("distances_identical_to_serial", "ref")),
                ]
                for e in (e_serial, e_percall, e_persist)
            ],
        )
        print(
            f"persistent vs per-call: "
            f"{record['speedup_persistent_vs_percall']}x; "
            f"persistent vs serial: "
            f"{record['speedup_persistent_vs_serial']}x"
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
