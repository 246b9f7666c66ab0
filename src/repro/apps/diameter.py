"""Exact graph diameter (Section VII-B-a).

The diameter — the longest shortest path — needs all ``n`` trees.  Each
tree contributes its maximum finite label; PHAST makes the per-tree cost
a linear sweep, and the per-tree reduction (one ``max``) matches the
paper's GPHAST bookkeeping (a running per-vertex maximum, collapsed at
the end).  The trees run on a :class:`~repro.core.pool.PhastPool`: the
reduction happens inside the workers, so an n-tree run ships one
``(value, source, target)`` triple per worker instead of ``n`` distance
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from ..core.pool import PhastPool, TaskContext, TreeReducer
from ..graph.csr import INF, StaticGraph
from ..sssp.dijkstra import dijkstra

__all__ = ["DiameterResult", "diameter", "eccentricities"]


@dataclass(frozen=True)
class DiameterResult:
    """Diameter value and one realizing pair."""

    value: int
    source: int
    target: int
    trees_computed: int


def _tree_max(source: int, dist: np.ndarray) -> tuple[int, int, int]:
    """Per-tree reducer: (max finite label, source, argmax)."""
    finite = dist < INF
    if not finite.any():
        return 0, source, source
    masked = np.where(finite, dist, -1)
    t = int(masked.argmax())
    return int(masked[t]), source, t


def _ecc_of_tree(source: int, dist: np.ndarray) -> int:
    """Per-tree map: the eccentricity of ``source``."""
    finite = dist < INF
    return int(dist[finite].max()) if finite.any() else 0


class DiameterReducer(TreeReducer):
    """Keeps the single best ``(value, source, target)`` per worker."""

    def make_state(self, ctx: TaskContext):
        return (-1, -1, -1)

    def fold(self, ctx, state, index, source, dist):
        cand = _tree_max(source, dist)
        return cand if cand[0] > state[0] else state

    def merge(self, states):
        best = (-1, -1, -1)
        for s in states:
            if s[0] > best[0]:
                best = s
        return best


def diameter(
    graph: StaticGraph,
    ch: ContractionHierarchy | None = None,
    *,
    sources: np.ndarray | None = None,
    method: str = "phast",
    num_workers: int = 1,
    pool: PhastPool | None = None,
) -> DiameterResult:
    """Exact (or, with ``sources``, sampled) diameter.

    Parameters
    ----------
    graph:
        The input graph (used directly by the Dijkstra baseline).
    ch:
        Required for ``method="phast"`` (unless ``pool`` is given).
    sources:
        Roots to grow trees from; default all vertices (exact).
    method:
        ``"phast"`` (default) or ``"dijkstra"`` (the baseline the paper
        replaces).
    num_workers:
        Worker processes for an ephemeral pool (ignored when ``pool``
        is passed).
    pool:
        A persistent :class:`~repro.core.pool.PhastPool` over ``ch`` to
        reuse across calls; no extra graphs/arrays required.
    """
    if sources is None:
        sources = np.arange(graph.n, dtype=np.int64)
    else:
        sources = np.asarray(sources, dtype=np.int64)
    best = (-1, -1, -1)
    if method == "phast":
        if pool is None and ch is None:
            raise ValueError("method='phast' requires a hierarchy")
        owned = pool is None
        if owned:
            pool = PhastPool(ch, num_workers=num_workers)
        try:
            best = pool.reduce(sources, DiameterReducer())
        finally:
            if owned:
                pool.close()
    elif method == "dijkstra":
        for s in sources:
            tree = dijkstra(graph, int(s), with_parents=False)
            value, s_, t = _tree_max(int(s), tree.dist)
            if value > best[0]:
                best = (value, s_, t)
    else:
        raise ValueError(f"unknown method {method!r}")
    return DiameterResult(
        value=best[0], source=best[1], target=best[2], trees_computed=len(sources)
    )


def eccentricities(
    graph: StaticGraph,
    ch: ContractionHierarchy | None = None,
    *,
    method: str = "phast",
    num_workers: int = 1,
    pool: PhastPool | None = None,
) -> np.ndarray:
    """Eccentricity (max finite distance) of every vertex.

    The diameter is the maximum entry; the radius the minimum.
    """
    n = graph.n
    if method == "phast":
        if pool is None and ch is None:
            raise ValueError("method='phast' requires a hierarchy")
        owned = pool is None
        if owned:
            pool = PhastPool(ch, num_workers=num_workers)
        try:
            values = pool.map(range(n), _ecc_of_tree)
        finally:
            if owned:
                pool.close()
        return np.asarray(values, dtype=np.int64)
    if method != "dijkstra":
        raise ValueError(f"unknown method {method!r}")
    ecc = np.zeros(n, dtype=np.int64)
    for s in range(n):
        dist = dijkstra(graph, s, with_parents=False).dist
        ecc[s] = _ecc_of_tree(s, dist)
    return ecc
