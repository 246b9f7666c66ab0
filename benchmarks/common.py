"""Shared infrastructure for the benchmark harness.

Every table and figure of the paper has a module here that rebuilds it.
Two kinds of numbers appear:

* **measured** — wall-clock milliseconds of this reproduction's Python
  implementations on a scaled-down synthetic network (absolute values
  are incomparable to the paper's C++; *ratios and orderings* are the
  reproduction target);
* **modeled** — the hardware cost model's predictions at the paper's
  full Europe/USA scale, directly comparable to the paper's absolute
  numbers.

Expensive artifacts (graphs + hierarchies) are pickled under
``benchmarks/.cache`` so repeated runs skip CH preprocessing.  Set
``REPRO_BENCH_SCALE`` to change the instance size (default 64 ⇒ 4096
vertices).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ch import contract_graph
from repro.core import PhastEngine, phast_original_order
from repro.graph import StaticGraph, dfs_order, europe_like, usa_like
from repro.simulator import WorkloadCounts

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

#: Paper-scale workload counts used by the modeled columns.
EUROPE_COUNTS = WorkloadCounts(n=18_000_000, arcs=33_800_000, levels=140)
EUROPE_DIJKSTRA_COUNTS = WorkloadCounts(n=18_000_000, arcs=42_000_000)
USA_COUNTS = WorkloadCounts(n=24_000_000, arcs=50_600_000, levels=101)
USA_DIJKSTRA_COUNTS = WorkloadCounts(n=24_000_000, arcs=58_300_000)
EUROPE_DIST_COUNTS = WorkloadCounts(n=18_000_000, arcs=38_800_000, levels=410)
USA_DIST_COUNTS = WorkloadCounts(n=24_000_000, arcs=53_700_000, levels=285)


def bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "64"))


@dataclass
class Instance:
    """A benchmark-ready graph with its hierarchy and engines."""

    name: str
    graph: StaticGraph
    ch: object
    build_seconds: float
    engines: dict = field(default_factory=dict)

    def engine(self, *, explicit_init: bool = False):
        if explicit_init not in self.engines:
            self.engines[explicit_init] = PhastEngine(
                self.ch, explicit_init=explicit_init
            )
        return self.engines[explicit_init]

    def original_order(self):
        """Table I's "original ordering" PHAST, as a tree function."""
        if "original" not in self.engines:
            self.engines["original"] = phast_original_order(
                self.ch, sweep=self.engine().sweep
            )
        return self.engines["original"]


def _apply_layout(g: StaticGraph, layout: str) -> StaticGraph:
    if layout == "input":
        return g
    if layout == "dfs":
        return g.permute(dfs_order(g))
    if layout == "random":
        from repro.graph import random_order

        return g.permute(random_order(g.n, seed=0))
    raise ValueError(f"unknown layout {layout!r}")


def _build(kind: str, scale: int, metric: str, layout: str) -> Instance:
    if kind == "europe":
        g = europe_like(scale=scale, metric=metric)
    elif kind == "usa":
        g = usa_like(scale=scale, metric=metric)
    else:
        raise ValueError(kind)
    g = _apply_layout(g, layout)
    start = time.perf_counter()
    ch = contract_graph(g)
    build = time.perf_counter() - start
    return Instance(
        name=f"{kind}-{metric}-{scale}-{layout}", graph=g, ch=ch, build_seconds=build
    )


def load_instance(
    kind: str = "europe",
    metric: str = "time",
    scale: int | None = None,
    layout: str = "dfs",
) -> Instance:
    """Fetch (or build and cache) a benchmark instance.

    ``layout`` is one of the paper's three vertex orders: ``"random"``,
    ``"input"`` (as generated) or ``"dfs"`` (the default the paper uses
    for all measurements beyond Table I).
    """
    scale = scale or bench_scale()
    CACHE_DIR.mkdir(exist_ok=True)
    name = f"{kind}-{metric}-{scale}-{layout}"
    path = CACHE_DIR / f"{name}.pickle"
    if path.exists():
        with open(path, "rb") as f:
            graph, ch, build = pickle.load(f)
        return Instance(name=name, graph=graph, ch=ch, build_seconds=build)
    inst = _build(kind, scale, metric, layout)
    with open(path, "wb") as f:
        pickle.dump((inst.graph, inst.ch, inst.build_seconds), f)
    return inst


def time_ms(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Median wall-clock milliseconds of ``fn()``."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Fixed-width table printer used by every bench target."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    print()
    print(f"== {title} ==")
    print(line)
    print("-" * len(line))
    for row in cells:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def fmt(x: float, digits: int = 2) -> str:
    """Compact numeric formatting for table cells."""
    if x != x:  # NaN
        return "-"
    if x >= 1000:
        return f"{x:,.0f}"
    return f"{x:.{digits}f}"


def random_sources(n: int, k: int, seed: int = 0) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, n, k)]
