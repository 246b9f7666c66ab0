"""Preprocessing throughput — the round pipeline vs the paper reference.

The paper treats CH preprocessing as an offline cost (Section VIII-A
reports ~hours for Europe with the tuned priority function).  This
bench tracks the reproduction's contraction pipeline against the
paper's reference contractor on Europe-like time-metric networks:

* ``batched`` — :func:`repro.ch.contract_graph`, the vectorized
  independent-set round pipeline every caller uses;
* ``lazy`` — :func:`repro.ch.contract_graph_lazy`, the
  one-vertex-at-a-time reference contractor.

For each instance size it reports wall-clock, throughput
(vertices/second), shortcut count, round count and peak round size,
and writes the whole record to ``BENCH_preprocessing.json`` next to
this file.  The sequential engine is skipped beyond
``SEQUENTIAL_LIMIT`` vertices (it would take tens of minutes there —
the gap this bench exists to document); the skip is recorded in the
JSON rather than silently dropped.

A second section sweeps the pipeline over :class:`TaskPool`
worker counts (1/2/4/8 by default) on the smallest instance and
reports the speedup over the single-process run plus the shortcut
count per worker count — the counts must be identical, since the
parallel engine is bit-deterministic in the worker count.  Worker
counts above one are *forced* (``force_pool=True``), so on a 1-CPU
host the sweep still exercises real worker processes; the host CPU
count is recorded so flat speedups there read as honest, not broken.

``REPRO_BENCH_PREP_SIZES`` overrides the vertex-count list (comma
separated), e.g. ``REPRO_BENCH_PREP_SIZES=4000`` for a CI smoke run;
``REPRO_BENCH_PREP_WORKERS`` overrides the worker sweep the same way.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from common import fmt, print_table
from repro.ch import contract_graph, contract_graph_lazy
from repro.graph import europe_like
from repro.utils import bulk_compute

#: Target vertex counts; europe_like(scale) has scale² vertices.
DEFAULT_SIZES = (4_000, 20_000, 100_000)

#: Worker counts for the parallel-preprocessing sweep.
DEFAULT_WORKER_SWEEP = (1, 2, 4, 8)

#: Largest instance the lazy sequential contractor is asked to run.
SEQUENTIAL_LIMIT = 25_000

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_preprocessing.json"


def _sizes() -> tuple[int, ...]:
    env = os.environ.get("REPRO_BENCH_PREP_SIZES")
    if not env:
        return DEFAULT_SIZES
    return tuple(int(x) for x in env.split(",") if x.strip())


def _worker_sweep() -> tuple[int, ...]:
    env = os.environ.get("REPRO_BENCH_PREP_WORKERS")
    if not env:
        return DEFAULT_WORKER_SWEEP
    return tuple(int(x) for x in env.split(",") if x.strip())


#: The ``strategy`` label each engine's entries carry in the JSON.
ENGINES = {"batched": contract_graph, "lazy": contract_graph_lazy}


def _measure(graph, strategy: str) -> dict:
    start = time.perf_counter()
    with bulk_compute():
        ch = ENGINES[strategy](graph)
    seconds = time.perf_counter() - start
    stats = ch.preprocessing_stats
    entry = {
        "strategy": strategy,
        "n": int(graph.n),
        "m": int(graph.m),
        "seconds": round(seconds, 3),
        "vertices_per_sec": round(graph.n / seconds, 1) if seconds else None,
        "shortcuts": int(ch.num_shortcuts),
        "levels": int(ch.num_levels),
        "witness_searches": int(stats.get("witness_searches", 0)),
    }
    if strategy == "batched":
        entry["rounds"] = int(stats.get("rounds", 0))
        entry["peak_batch"] = int(stats.get("peak_batch", 0))
        entry["mean_batch"] = round(float(stats.get("mean_batch", 0.0)), 1)
        entry["rebuilds"] = int(stats.get("rebuilds", 0))
    return entry


def _measure_workers(graph, workers: int) -> dict:
    start = time.perf_counter()
    with bulk_compute():
        ch = contract_graph(
            graph, num_workers=workers, force_pool=workers > 1
        )
    seconds = time.perf_counter() - start
    stats = ch.preprocessing_stats
    return {
        "workers": workers,
        "parallel": bool(stats["parallel"]),
        "seconds": round(seconds, 3),
        "shortcuts": int(ch.num_shortcuts),
        "witness_searches": int(stats.get("witness_searches", 0)),
        "publish_seconds": round(float(stats.get("publish_seconds", 0.0)), 3),
    }


def _sweep_workers(graph, record: dict, quiet: bool) -> None:
    entries = [_measure_workers(graph, w) for w in _worker_sweep()]
    baseline = entries[0]["seconds"]
    rows = []
    for e in entries:
        e["speedup"] = (
            round(baseline / e["seconds"], 2) if e["seconds"] else None
        )
        rows.append([
            e["workers"],
            f"{fmt(e['seconds'])}s",
            f"{fmt(e['speedup'])}x",
            e["shortcuts"],
            f"{fmt(e['publish_seconds'])}s",
        ])
    counts = {e["shortcuts"] for e in entries}
    if len(counts) != 1:
        record["notes"].append(
            f"DETERMINISM VIOLATION: shortcut counts differ across "
            f"worker counts: {sorted(counts)}"
        )
    record["worker_sweep"] = {"n": int(graph.n), "entries": entries}
    if not quiet:
        print_table(
            f"Parallel preprocessing: TaskPool worker sweep "
            f"(n={graph.n}, {os.cpu_count()} host CPUs, forced pool)",
            ["workers", "seconds", "speedup", "shortcuts", "publish"],
            rows,
        )


def run(quiet: bool = False) -> dict:
    record: dict = {
        "bench": "preprocessing",
        "metric": "europe-like, time metric",
        "sequential_limit": SEQUENTIAL_LIMIT,
        "cpus": os.cpu_count(),
        "entries": [],
        "notes": [],
    }
    rows = []
    sweep_graph = None  # smallest instance; reused for the worker sweep
    for target in _sizes():
        scale = max(2, round(math.sqrt(target)))
        graph = europe_like(scale=scale, metric="time", seed=0)
        if sweep_graph is None or graph.n < sweep_graph.n:
            sweep_graph = graph
        batched = _measure(graph, "batched")
        record["entries"].append(batched)
        if graph.n <= SEQUENTIAL_LIMIT:
            seq = _measure(graph, "lazy")
            record["entries"].append(seq)
            speedup = seq["seconds"] / batched["seconds"]
            ratio = batched["shortcuts"] / seq["shortcuts"]
            seq_cell = f"{fmt(seq['seconds'])}s"
            speed_cell = f"{fmt(speedup)}x"
            ratio_cell = fmt(ratio, 3)
        else:
            record["notes"].append(
                f"sequential skipped at n={graph.n} "
                f"(> {SEQUENTIAL_LIMIT} vertices; would run for tens of "
                "minutes)"
            )
            seq_cell = speed_cell = ratio_cell = "-"
        rows.append([
            graph.n,
            f"{fmt(batched['seconds'])}s",
            fmt(batched["vertices_per_sec"], 0),
            batched["shortcuts"],
            batched["peak_batch"],
            batched["rounds"],
            seq_cell,
            speed_cell,
            ratio_cell,
        ])
    if not quiet:
        print_table(
            "CH preprocessing: batched round pipeline vs "
            "lazy reference",
            [
                "n", "batched", "vert/s", "shortcuts", "peak round",
                "rounds", "sequential", "speedup", "sc ratio",
            ],
            rows,
        )
    if sweep_graph is not None:
        _sweep_workers(sweep_graph, record, quiet)
    if not quiet:
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
