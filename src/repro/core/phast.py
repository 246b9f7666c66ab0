"""The PHAST algorithm: single-source shortest path trees in two phases.

A query (Section III) is:

1. a forward CH search from the source in ``G↑`` (tiny — hundreds of
   vertices), and
2. a *linear sweep* over all vertices in descending level order,
   relaxing each vertex's incoming downward arcs.

Phase 2's scan order is source-independent, so
:class:`~repro.core.sweep.SweepStructure` pre-sorts everything by level
(Section IV-A) and the sweep becomes one C loop over the positions,
lanes innermost (:class:`~repro.core.sweep.LevelSweep`), as in the
paper's C++ loop.  A batch of ``k`` trees is one native call: the
``k`` searches, the sweep and the write of each row by original ID.
A bit-identical per-level NumPy sweep stands in where no compiler is
available.  A scalar reference implementation
(:func:`phast_scalar`) keeps the fast path honest in tests;
:func:`phast_original_order` is Table I's "original ordering"
baseline.

Initialization is *implicit* (Section IV-C): the sweep writes every
label exactly once per query (each position starts from its seed, the
CH search label or ∞), so the distance array is never globally reset;
only the seeds the search wrote are put back to ∞.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from ..ch.query import upward_search
from ..graph.csr import INF, StaticGraph
from ..sssp.result import ShortestPathTree
from ..utils.segments import segment_minimum
from .sweep import LevelSweep, SweepStructure

__all__ = ["PhastEngine", "phast_scalar", "phast_original_order"]


class PhastEngine:
    """Reusable PHAST query engine over one contraction hierarchy.

    Upward search + the full sweep structure + a scatter to original
    IDs, all in the shared :class:`~repro.core.sweep.LevelSweep` kernel
    over level-contiguous positions (the paper's "reordered by level"
    layout; the "original ordering" of Table I is the reference
    :func:`phast_original_order`): one native call per :meth:`tree` or
    :meth:`trees`.

    Parameters
    ----------
    ch:
        Preprocessed hierarchy (see :func:`repro.ch.contract_graph`).
    explicit_init:
        ``True`` re-fills the whole label array with ∞ before every
        query instead of relying on implicit initialization; exists for
        the Section IV-C ablation.
    sweep:
        A prebuilt :class:`~repro.core.sweep.SweepStructure` for ``ch``
        (by default one is built here).  Pool workers pass the shared
        sweep arrays so every worker skips the O(n log n) rebuild.
    search_cache:
        Capacity of the LRU cache of upward CH search spaces (0, the
        default, disables it).

    Notes
    -----
    The engine owns persistent label buffers, so queries after the
    first perform no O(n) initialization (implicit init).  Engines are
    not thread-safe; use one per worker.
    """

    def __init__(
        self,
        ch: ContractionHierarchy,
        *,
        explicit_init: bool = False,
        sweep: SweepStructure | None = None,
        search_cache: int = 0,
    ) -> None:
        self.ch = ch
        self.sweep = sw = SweepStructure(ch) if sweep is None else sweep
        self.explicit_init = bool(explicit_init)
        self.kernel = LevelSweep(ch, sw, search_cache=search_cache)
        self.last_stats: dict = {}

    @property
    def search_cache_hits(self) -> int:
        return self.kernel.search_cache_hits

    @property
    def search_cache_misses(self) -> int:
        return self.kernel.search_cache_misses

    # -- single tree --------------------------------------------------------

    def tree(
        self,
        source: int,
        *,
        with_parents: bool = False,
    ) -> ShortestPathTree:
        """Compute all distances from ``source`` (one PHAST query).

        Distances are returned indexed by *original* vertex IDs.  With
        ``with_parents=True`` the parents are recovered in ``G+``
        (shortcut arcs allowed; see :mod:`repro.core.trees` for
        original-graph trees).
        """
        sw = self.sweep
        if self.explicit_init:
            self.kernel.dist.fill(INF)
        out = np.empty(sw.n, dtype=np.int64)
        self.kernel.trees([source], out[None])
        self.last_stats["ch_search_size"] = self.kernel.search_size(0)
        tree = ShortestPathTree(source=source, dist=out, scanned=sw.n)
        if with_parents:
            tree.parent = self._parents_gplus(source, out)
        return tree

    def tree_with_sweep_parents(self, source: int) -> ShortestPathTree:
        """One query that also returns the arc responsible for each label
        (Section VII-A).

        "When scanning v during the linear sweep phase, it suffices to
        remember the arc (u, v) responsible for d(v)": after the sweep,
        the first in-arc of each head whose candidate equals the head's
        label is that arc (one vectorized comparison); vertices realized
        by the CH search alone take their upward-search parent.  Parents
        are in ``G+`` (shortcuts allowed).
        """
        sw = self.sweep
        n = sw.n
        space = upward_search(self.ch, source)
        pos, val, idx = self.kernel.project(space)
        self.last_stats["ch_search_size"] = space.size
        dist = self.kernel.run((pos, val))

        head = np.repeat(np.arange(n, dtype=np.int64), np.diff(sw.arc_first))
        hits = np.flatnonzero(dist[sw.arc_tail_pos] + sw.arc_len == dist[head])
        heads, first_hit = np.unique(head[hits], return_index=True)
        parent_pos = np.full(n, -1, dtype=np.int64)
        parent_pos[heads] = sw.arc_tail_pos[hits[first_hit]]

        out = np.empty(n, dtype=np.int64)
        out[sw.vertex_at] = dist
        parent = np.full(n, -1, dtype=np.int64)
        swept = parent_pos >= 0
        parent[sw.vertex_at[swept]] = sw.vertex_at[parent_pos[swept]]
        # No in-arc reaches a searched label that beat every arc: those
        # vertices keep their upward-search parent (an original ID).
        searched = parent_pos[pos] < 0
        parent[sw.vertex_at[pos[searched]]] = space.parents[idx[searched]]
        parent[source] = -1
        return ShortestPathTree(
            source=source, dist=out, parent=parent, scanned=n
        )

    # -- multiple trees -------------------------------------------------------

    def trees(
        self, sources: np.ndarray | list[int], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Compute ``k`` trees in one sweep (Section IV-B).

        Returns an ``(k, n)`` array of distances indexed by original
        vertex ID; ``out`` of that shape receives the result in place
        (pool workers pass slices of a shared output matrix).
        """
        shape = (len(sources), self.sweep.n)
        if out is None:
            out = np.empty(shape, dtype=np.int64)
        elif out.shape != shape:
            raise ValueError(f"out must have shape {shape}")
        self.kernel.trees(sources, out)
        return out

    def bind_rows(self, rows: np.ndarray) -> list[np.ndarray]:
        """Bind a reused ``(K, n)`` int64 output buffer for :meth:`trees`
        and return its prefixes ``rows[:k]``, ``k = 0 .. K``: passed as
        ``out``, a prefix costs the kernel no pointer lookup per call."""
        return self.kernel.bind_rows(rows)

    # -- parents ---------------------------------------------------------------

    def _parents_gplus(self, source: int, dist_orig: np.ndarray) -> np.ndarray:
        """Parent pointers in ``G+`` (may traverse shortcut arcs).

        For every vertex the arc that realizes its label is recovered
        by re-checking the identity ``d(v) == d(u) + l(u, v)`` over the
        downward arc list; vertices whose label came from the CH search
        get their upward-search parent.
        """
        sw = self.sweep
        n = sw.n
        parent = np.full(n, -1, dtype=np.int64)
        tails_orig = sw.vertex_at[sw.arc_tail_pos]
        heads_orig = sw.vertex_at[
            np.repeat(np.arange(n, dtype=np.int64), np.diff(sw.arc_first))
        ]
        ok = dist_orig[heads_orig] == dist_orig[tails_orig] + sw.arc_len
        ok &= dist_orig[heads_orig] < INF
        # Positive arcs first: the parent's label is strictly smaller,
        # so these chains can never cycle (last write wins; any
        # satisfying arc is a valid parent).  Zero-length arcs connect
        # equal-label vertices and are deferred — picking them blindly
        # can orient a zero-cycle into a parent cycle.
        pos = ok & (sw.arc_len > 0)
        parent[heads_orig[pos]] = tails_orig[pos]
        # Vertices realized by the upward search (no downward arc
        # matches): take CH-search parents.
        space = upward_search(self.ch, source)
        need = parent[space.vertices] == -1
        exact = dist_orig[space.vertices] == space.dists
        use = need & exact
        parent[space.vertices[use]] = space.parents[use]
        parent[source] = -1
        # Zero-length ties: attach still-unresolved vertices only to
        # already-resolved tails, in rounds.  Every assignment points
        # at a vertex whose chain is known to terminate, so the result
        # stays acyclic; every finite label is reachable this way
        # because along its shortest path the first vertex of any
        # zero-length stretch is realized by a positive arc, the
        # upward search, or the source itself.
        zero = ok & (sw.arc_len == 0)
        if np.any(zero):
            zt, zh = tails_orig[zero], heads_orig[zero]
            while True:
                pending = (parent[zh] == -1) & (zh != source)
                pending &= (parent[zt] != -1) | (zt == source)
                if not np.any(pending):
                    break
                parent[zh[pending]] = zt[pending]
        return parent


def phast_scalar(
    ch: ContractionHierarchy, source: int, *, with_parents: bool = False
) -> ShortestPathTree:
    """Reference implementation of basic PHAST (Section III).

    Scans vertices one by one in descending rank order with plain
    Python loops.  Used to validate the vectorized engine; far too slow
    for benchmarks.
    """
    n = ch.n
    dist = np.full(n, INF, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64) if with_parents else None
    space = upward_search(ch, source)
    for v, d, p in zip(space.vertices, space.dists, space.parents):
        if d < dist[v]:
            dist[v] = d
            if parent is not None:
                parent[v] = p
    down = ch.downward_rev
    order = np.argsort(-ch.rank)  # descending rank
    for v in order:
        lo, hi = down.first[v], down.first[v + 1]
        for i in range(lo, hi):
            u = int(down.arc_head[i])
            nd = dist[u] + int(down.arc_len[i])
            if nd < dist[v]:
                dist[v] = nd
                if parent is not None:
                    parent[v] = u
    if parent is not None:
        parent[source] = -1
    return ShortestPathTree(source=source, dist=dist, parent=parent, scanned=n)


def phast_original_order(
    ch: ContractionHierarchy, *, sweep: SweepStructure | None = None
) -> Callable[[int], ShortestPathTree]:
    """Table I's "original ordering" PHAST, as a reusable tree function.

    Same level blocks and arcs as the engine, but labels stay indexed
    by original vertex ID, so every level gathers its tails and
    scatters its heads through ``vertex_at`` — the same work with worse
    locality.  A paper-reproduction baseline for the benchmarks, not a
    serving path.
    """
    sw = SweepStructure(ch) if sweep is None else sweep
    tails = sw.vertex_at[sw.arc_tail_pos]
    dist = np.empty(sw.n, dtype=np.int64)
    seed = np.full(sw.n, INF, dtype=np.int64)  # search labels, ∞ at rest

    def tree(source: int) -> ShortestPathTree:
        space = upward_search(ch, source)
        seed[space.vertices] = space.dists
        try:
            for i in range(sw.num_levels):
                lo, hi = sw.level_slice(i)
                alo, ahi = sw.level_arc_slice(i)
                heads = sw.vertex_at[lo:hi]
                dist[heads] = segment_minimum(
                    dist[tails[alo:ahi]] + sw.arc_len[alo:ahi],
                    sw.arc_first[lo : hi + 1] - alo,
                    initial=seed[heads],
                )
        finally:
            seed[space.vertices] = INF
        return ShortestPathTree(source=source, dist=dist.copy(), scanned=sw.n)

    return tree
