"""The PHAST sweep data structure and the one kernel that sweeps it.

:class:`SweepStructure` freezes everything the linear sweep needs into
flat arrays ordered for locality, following Section IV-A:

* vertices are assigned *sweep positions* sorted by descending CH level
  (ties broken by input ID, preserving whatever locality — e.g. a DFS
  layout — the input order had);
* the downward arcs into each vertex are stored contiguously, grouped
  by head, in sweep-position order, so one pass over the arc arrays
  visits heads sequentially;
* per-level boundaries into both the position range and the arc range
  let the sweep (and its parallel/GPU variants) process one level at a
  time with pure slice arithmetic.

The structure is source-independent — built once per hierarchy, reused
by every query, which is the asymmetry PHAST exploits.  RPHAST builds
the same structure over its selected vertices only.

:class:`LevelSweep` is the second phase itself, plus the first (the
upward search).  One sweep serves one lane and ``k``: it starts each
position from a seed array that holds the lanes' search marks and ∞
elsewhere.  Its compiled form is one native call per batch: the
lanes' searches, their seeds, one pass over the positions reading
``arc_first``, ``arc_tail_pos`` and ``arc_len``, and the scatter of
each lane to original IDs.  Its NumPy fallback relaxes one level
block of ``level_first`` at a time.  PHAST runs it over the full
structure, RPHAST over a restricted one, and the level-parallel driver
(NumPy levels) over position blocks of each level — one kernel, in
the spirit of GPHAST's single per-level kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Mapping

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from ..ch.query import UpwardSearchSpace, upward_search
from ..graph.csr import INF
from ..utils import native
from ..utils.segments import gather_ranges

__all__ = ["SweepStructure", "LevelSweep"]


class SweepStructure:
    """Level-ordered downward graph, frozen for linear sweeps.

    Built over all of a hierarchy's vertices for PHAST, or over a
    selected subset for RPHAST's restricted sweep.  A subset must be
    closed under downward predecessors: every tail of a selected
    vertex's incoming downward arcs is selected too.

    Attributes
    ----------
    n:
        Swept vertex count (the hierarchy's ``n`` for a full structure).
    pos_of:
        ``pos_of[v]`` is the sweep position of original vertex ``v``,
        ``-1`` for vertices outside the swept set (length ``ch.n``).
    vertex_at:
        Inverse permutation: original ID at each sweep position.
    num_levels:
        Number of level blocks: the CH levels present among the swept
        vertices.
    level_first:
        Array of length ``num_levels + 1``; level block ``i`` (the
        ``i``-th *scanned*, i.e. the ``i``-th highest level) covers
        sweep positions ``level_first[i] .. level_first[i+1]-1``.
    arc_first:
        CSR offsets per sweep position into the arc arrays
        (length ``n + 1``).
    arc_tail_pos:
        Sweep position of each downward arc's tail.
    arc_len:
        Length of each downward arc.

    Notes
    -----
    The per-arc arrays (``arc_tail_pos``, ``arc_len``) and the offset
    array ``arc_first`` are narrowed to 32-bit when the instance fits
    (position and arc counts and lengths below 2³¹) — the
    paper's GPU lays arcs out exactly so (4-byte tail + 4-byte length,
    4-byte offsets), and halving the scanned bytes is part of what the
    sweep's memory-bandwidth bound is about.  Arithmetic against the
    ``int64`` distance array promotes, so consumers are unaffected.
    """

    #: The arrays a publication carries (see :meth:`arrays`); ``pos_of``
    #: is rebuilt from ``vertex_at`` on the far side.
    KEYS = ("vertex_at", "level_first", "arc_first", "arc_tail_pos", "arc_len")

    __slots__ = ("n", "pos_of", "num_levels", *KEYS)

    def __init__(
        self, ch: ContractionHierarchy, vertices: np.ndarray | None = None
    ) -> None:
        vertices = (np.arange(ch.n, dtype=np.int64) if vertices is None
                    else np.asarray(vertices, dtype=np.int64))
        levels = ch.level[vertices]
        order = np.lexsort((vertices, -levels))  # by (-level, id)
        self.vertex_at = vertices[order]
        levels = levels[order]
        cuts = np.flatnonzero(levels[1:] != levels[:-1]) + 1
        self.level_first = np.concatenate(
            ([0], cuts, [self.vertex_at.size])
        ).astype(np.int64)
        self._index(ch.n)

        # Downward arcs: ch.downward_rev stores, per head v, the tails u
        # (rank[u] > rank[v]); gathering the heads' ranges in sweep
        # order groups the arcs by head sweep position.
        down = ch.downward_rev
        first = down.first
        arc_idx, _ = gather_ranges(first, self.vertex_at)
        arc_len = down.arc_len[arc_idx]

        # Narrow to the GPU layout's 32-bit entries when they fit.
        # int32 rather than uint32: unsigned offsets promote through
        # cumsum/concatenate to uint64 and then float64 downstream.
        i32 = np.iinfo(np.int32).max
        narrow = self.n <= i32 and arc_len.max(initial=0) <= i32
        arc_type = np.int32 if narrow else np.int64
        self.arc_tail_pos = self.pos_of[down.arc_head[arc_idx]].astype(arc_type)
        self.arc_len = arc_len.astype(arc_type)
        self.arc_first = np.zeros(self.n + 1, dtype=(
            np.int32 if arc_idx.size <= i32 else np.int64))
        np.cumsum(first[self.vertex_at + 1] - first[self.vertex_at],
                  out=self.arc_first[1:])

    def _index(self, num_vertices: int) -> None:
        """Derive ``n``, ``num_levels`` and ``pos_of`` from the arrays."""
        self.n = int(self.vertex_at.size)
        self.num_levels = int(self.level_first.size) - 1
        self.pos_of = np.full(num_vertices, -1, dtype=np.int64)
        self.pos_of[self.vertex_at] = np.arange(self.n, dtype=np.int64)

    def arrays(self) -> dict[str, np.ndarray]:
        """The structure as a publication: its :data:`KEYS` under ``sw:``."""
        return {f"sw:{key}": getattr(self, key) for key in self.KEYS}

    @classmethod
    def from_arrays(
        cls, views: Mapping[str, np.ndarray], num_vertices: int
    ) -> "SweepStructure":
        """Wrap published :meth:`arrays` without re-sorting anything.

        Used by :class:`~repro.core.pool.PhastPool` workers, which
        receive the arrays as zero-copy shared-memory views: the
        structure is built once in the parent and merely re-wrapped
        here.  Only ``pos_of`` (length ``num_vertices``, the
        hierarchy's vertex count) is rebuilt, in O(n).
        """
        self = cls.__new__(cls)
        for key in cls.KEYS:
            setattr(self, key, views[f"sw:{key}"])
        self._index(num_vertices)
        return self

    @property
    def num_arcs(self) -> int:
        """Downward arcs scanned per sweep."""
        return int(self.arc_len.size)

    def level_slice(self, i: int) -> tuple[int, int]:
        """Sweep-position range of the ``i``-th scanned level block."""
        return int(self.level_first[i]), int(self.level_first[i + 1])

    def level_arc_slice(self, i: int) -> tuple[int, int]:
        """Arc range feeding the ``i``-th scanned level block."""
        lo, hi = self.level_slice(i)
        return int(self.arc_first[lo]), int(self.arc_first[hi])

    def level_sizes(self) -> np.ndarray:
        """Vertices per scanned level block (descending level order)."""
        return np.diff(self.level_first)

    @property
    def nbytes(self) -> int:
        """Bytes of the sweep arrays (GPU memory accounting uses this)."""
        return (
            self.arc_first.nbytes
            + self.arc_tail_pos.nbytes
            + self.arc_len.nbytes
            + self.level_first.nbytes
        )


class LevelSweep:
    """The linear sweep over level-ordered arrays, for ``k`` lanes.

    Parameters
    ----------
    ch:
        Hierarchy whose upward graph :meth:`search` runs on (only
        ``n``, ``upward`` and ``elimination_parent`` are touched).
    sweep:
        The :class:`SweepStructure` to sweep, full or restricted.
    search_cache:
        When positive, LRU-cache up to this many projected upward
        searches (see :meth:`search`).

    Notes
    -----
    A sweep of ``k`` lanes writes each lane's search marks into a
    ``(size, k)`` *seed* array that holds ∞ at rest, takes per position
    the least of its seed and its in-arc candidates, and then puts ∞
    back at the marked positions only: implicit initialization, at
    O(search space) per lane rather than O(n).  Marks may come in any
    order, so nothing sorts or merges them; one lane is ``k = 1``.

    Batches run the compiled kernel of :mod:`repro.utils.native`
    when it loads and the arc arrays are 32-bit: one call searches
    each lane (walking the elimination tree when ``ch`` has one, else
    with the heap), seeds it, sweeps (one pass over the positions, no
    level loop), writes the rows by original ID (:meth:`trees`) and
    puts the seeds back.  Lanes with marks in hand (:meth:`run`, cache hits)
    are seeded here and skip the search.  Otherwise (no compiler,
    ``REPRO_NO_NATIVE``, arcs too wide, or a ``relax=`` hook) each
    lane goes through :meth:`search`, and the sweep relaxes one level
    at a time with NumPy, bit-identically; its scalar prefix,
    per-level reduceat plans and scratch are built on first use.
    :meth:`run` and :meth:`run_lanes` return views of reusable label
    buffers, valid until the next sweep, so a kernel is not safe for
    concurrent sweeps from several threads.
    """

    #: Leading levels with fewer incoming arcs than this are swept by
    #: the NumPy fallback's 1-lane path with plain Python loops: the
    #: hierarchy's top levels hold a handful of vertices each, and
    #: fixed NumPy call overhead would dominate there (the small-kernel
    #: regime the paper notes for its GPU kernels too).  Read when an
    #: engine is built.
    SCALAR_ARC_THRESHOLD = 48

    def __init__(
        self,
        ch: ContractionHierarchy,
        sweep: SweepStructure,
        *,
        search_cache: int = 0,
    ) -> None:
        self.ch = ch
        self.pos_of = sweep.pos_of
        self.vertex_at = sweep.vertex_at
        self.arc_first = arc_first = sweep.arc_first
        self.arc_tail_pos = arc_tail_pos = sweep.arc_tail_pos
        self.arc_len = arc_len = sweep.arc_len
        self.size = sweep.n
        self.level_first = sweep.level_first
        self._native = native.trees_kernel(ch.upward, self.pos_of, arc_first,
                                           arc_tail_pos, arc_len,
                                           self.vertex_at,
                                           ch.elimination_parent)
        # Flat label and seed buffers for the widest k so far; k lanes
        # reshape a prefix, which keeps every lane row contiguous.
        self._lanes = 0
        self._grow(1)
        self._lane_marks: list = []
        self._plans: list[tuple] | None = None
        self._threshold = self.SCALAR_ARC_THRESHOLD

        self._cache_cap = int(search_cache)
        self._cache: OrderedDict[int, tuple] = OrderedDict()
        self.search_cache_hits = 0
        self.search_cache_misses = 0

    def _grow(self, k: int) -> None:
        """Label and seed buffers (and the kernel's marks) for k lanes,
        at the kernel's width for k."""
        if self._native is not None:
            k = self._native.width(k)
        self._lanes = k
        self._labels = np.empty(self.size * k, dtype=np.int64)
        self._seeds = np.full(self.size * k, INF, dtype=np.int64)
        self._scratch = None
        if self._native is not None:
            self._native.lanes(self._labels, self._seeds, k)

    @property
    def dist(self) -> np.ndarray:
        """The 1-lane label buffer (what :meth:`run` returns)."""
        return self._labels[: self.size]

    def _fallback(self) -> None:
        """The NumPy levels' scalar prefix and per-level plans, built on
        first use (a native sweep never needs them)."""
        if self._plans is not None:
            return
        arc_first, level_first = self.arc_first, self.level_first
        # The prefix is self-contained: levels are scanned in
        # descending order and every arc's tail precedes its head.
        level_arcs = np.diff(arc_first[level_first])
        big = np.flatnonzero(level_arcs >= self._threshold)
        self._scalar_levels = int(big[0]) if big.size else int(level_arcs.size)
        P = int(level_first[self._scalar_levels])
        # Python-list shadows: scalar indexing of lists is several times
        # faster than scalar indexing of NumPy arrays.
        self._prefix_first = arc_first[: P + 1].tolist()
        self._prefix_tails = self.arc_tail_pos[: int(arc_first[P])].tolist()
        self._prefix_lens = self.arc_len[: int(arc_first[P])].tolist()

        bounds = level_first.tolist()
        self._plans = [self.plan(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        # Candidate and label scratch rows per lane: the most arcs and
        # the most positions of any level.
        most = max((p[3] - p[2] for p in self._plans), default=0)
        widest = max((p[1] - p[0] for p in self._plans), default=0)
        self._scratch_rows = (most, widest)

    def plan(self, lo: int, hi: int) -> tuple:
        """The plan of positions ``lo .. hi - 1`` (a level or a block).

        ``(lo, hi, alo, ahi, starts, nonempty)``: the position range,
        its arc range, the reduceat starts of its non-empty head
        segments (relative to ``alo``) and the mask of heads that have
        any incoming arc.
        """
        alo, ahi = int(self.arc_first[lo]), int(self.arc_first[hi])
        bounds = self.arc_first[lo : hi + 1] - alo
        nonempty = bounds[:-1] < bounds[1:]
        starts = np.ascontiguousarray(bounds[:-1][nonempty])
        return lo, hi, alo, ahi, starts, nonempty

    # -- upward search -----------------------------------------------------

    def project(
        self, space: UpwardSearchSpace
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """An upward search space as sweep marks, in settling order.

        Returns ``(pos, val, idx)``: the swept positions reached, their
        labels, and the indices into ``space`` they came from (vertices
        outside the swept set are dropped).
        """
        pos = self.pos_of[space.vertices]
        idx = np.flatnonzero(pos >= 0)
        return pos[idx], space.dists[idx], idx

    def search(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """``(pos, val)`` of the upward search from ``source``.

        The space is a pure function of the (read-only) hierarchy and
        the only per-source scalar work of a sweep, so a server
        answering repeat origins (depots, hubs, popular tiles) skips it
        on a hit of the ``search_cache`` LRU (~a few KB per entry).
        """
        cap = self._cache_cap
        if cap:
            cached = self._cache.get(source)
            if cached is not None:
                self._cache.move_to_end(source)
                self.search_cache_hits += 1
                return cached
            self.search_cache_misses += 1
        pos, val, _ = self.project(upward_search(self.ch, source))
        if cap:
            pos.flags.writeable = False
            val.flags.writeable = False
            self._cache[source] = (pos, val)
            if len(self._cache) > cap:
                self._cache.popitem(last=False)
        return pos, val

    def cache_info(self) -> dict[str, int]:
        """Upward ``search_cache`` occupancy and hit counters."""
        return {
            "capacity": self._cache_cap,
            "entries": len(self._cache),
            "hits": self.search_cache_hits,
            "misses": self.search_cache_misses,
        }

    # -- sweeps --------------------------------------------------------------

    def run(
        self,
        marks: tuple[np.ndarray, np.ndarray],
        *,
        relax: Callable | None = None,
    ) -> np.ndarray:
        """One-lane sweep from the search marks ``marks = (pos, val)``.

        Returns the labels by sweep position (the kernel's buffer).
        ``relax`` replaces :meth:`relax` for the NumPy levels with the
        same signature, and selects them — the level-parallel driver
        passes one that splits large levels into blocks.
        """
        return self._sweep([-1], [marks], relax=relax)[:, 0]

    def run_lanes(self, sources) -> np.ndarray:
        """``k = len(sources)`` trees in one sweep (Section IV-B).

        The ``k`` labels of one position are adjacent in memory (a
        ``(size, k)`` row-major array), so each arc relaxation updates
        a contiguous lane vector, as in the paper's SSE lanes.  Returns
        a view of the kernel's lane buffer.
        """
        sources = self._check(sources)
        if not sources:
            return np.empty((self.size, 0), dtype=np.int64)
        return self._sweep(sources)

    def trees(self, sources, out: np.ndarray) -> None:
        """:meth:`run_lanes` into the rows of ``out``, ``(k, ch.n)``, by
        original vertex ID (columns of unswept vertices are left as
        they are)."""
        sources = self._check(sources)
        if out.shape != (len(sources), self.ch.n):
            raise ValueError(f"out must have shape {(len(sources), self.ch.n)}")
        if not sources:
            return
        if self._native is None or (out.dtype == np.int64
                                    and out.flags.c_contiguous):
            self._sweep(sources, out=out)
        else:
            rows = np.empty(out.shape, dtype=np.int64)
            self._sweep(sources, out=rows)
            out[...] = rows

    def bind_rows(self, rows: np.ndarray) -> list[np.ndarray]:
        """Bind ``rows``, a reused ``(K, ch.n)`` int64 buffer, as the
        out of later :meth:`trees` calls: returns its prefixes
        ``rows[:k]`` for ``k = 0 .. K``, and the compiled kernel takes
        its address once, here, instead of once per call."""
        if rows.ndim != 2 or rows.shape[1] != self.ch.n:
            raise ValueError(f"rows must have {self.ch.n} columns")
        if self._native is not None:
            return self._native.bind_rows(rows)
        return [rows[:k] for k in range(rows.shape[0] + 1)]

    def search_size(self, lane: int = 0) -> int:
        """The number of marks lane ``lane`` of the last sweep started
        from."""
        marks = self._lane_marks[lane]
        if marks is None:
            _, ends = self._native.marks(lane + 1)
            return ends[lane] - (ends[lane - 1] if lane else 0)
        return int(marks[0].size)

    def _check(self, sources) -> list[int]:
        """``sources`` as ints, each a vertex of the hierarchy: checked
        before any lane is searched or seeded."""
        sources = (sources.tolist() if isinstance(sources, np.ndarray)
                   else list(map(int, sources)))
        if sources and not 0 <= min(sources) <= max(sources) < self.ch.n:
            raise ValueError("source out of range")
        return sources

    def _sweep(self, sources: list[int], marks: list | None = None, *,
               relax: Callable | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
        """Sweep one lane per source: lane ``j`` searches from
        ``sources[j]``, or starts from ``marks[j] = (pos, val)`` where
        the source is -1.  ``out`` receives the lanes as rows by
        original ID.  Returns the ``(size, k)`` labels.

        The compiled kernel searches, seeds, sweeps, scatters and
        resets in one call; it gets the cache's hits as seeded lanes
        and the cache takes its misses after.  Otherwise each lane is
        searched through :meth:`search` and the NumPy levels sweep.
        """
        k, n = len(sources), self.size
        kernel = self._native if relax is None else None
        # The kernel may sweep padding lanes past k (Trees.width): the
        # labels and seeds are then the first k columns of w.
        w = k if kernel is None else kernel.width(k)
        if w > self._lanes:
            self._grow(w)
        dist = self._labels[: n * w].reshape(n, w)
        seed = self._seeds[: n * w].reshape(n, w)
        if w > k:
            dist, seed = dist[:, :k], seed[:, :k]
        if marks is None:
            if kernel is None:
                marks = [self.search(s) for s in sources]
            elif self._cache_cap:
                marks = list(map(self._cache.get, sources))
            else:
                marks = [None] * k
        self._lane_marks = marks
        seeded = [(j, m) for j, m in enumerate(marks) if m is not None]
        lanes = sources
        if seeded and kernel is not None:
            lanes = [-1 if m is not None else s
                     for s, m in zip(sources, marks)]
        try:
            for lane, (pos, val) in seeded:
                seed[pos, lane] = val
            if kernel is not None:
                kernel.run(lanes, out)
            else:
                self._levels(dist, seed, relax or self.relax)
        finally:
            for lane, (pos, _) in seeded:
                seed[pos, lane] = INF
        if kernel is None:
            if out is not None:
                out[:, self.vertex_at] = dist.T
        elif self._cache_cap:
            self._account(sources, marks)
        return dist

    def _account(self, sources: list[int], marks: list) -> None:
        """The cache's side of a compiled sweep, lane by lane as
        :meth:`search` would have done it: a source in the cache is a
        hit, any other a miss whose marks (the cached ones it was
        seeded from, or those the kernel found, in its search's order:
        rank order for a walk, settling order for the heap) become the
        newest entry."""
        cache, cap = self._cache, self._cache_cap
        found, ends = self._native.marks(len(sources))
        lo = 0
        for s, m, hi in zip(sources, marks, ends):
            if s < 0:
                pass
            elif s in cache:
                cache.move_to_end(s)
                self.search_cache_hits += 1
            else:
                self.search_cache_misses += 1
                if m is None:
                    block = found[:, lo:hi].copy()
                    block.flags.writeable = False
                    m = (block[0], block[1])
                cache[s] = m
                if len(cache) > cap:
                    cache.popitem(last=False)
            lo = hi

    def relax(
        self, dist: np.ndarray, plan: tuple, values: np.ndarray, cand: np.ndarray
    ) -> None:
        """Write the best downward-arc candidate of each head of
        ``plan`` into ``values`` (∞ for heads without arcs); ``cand`` is
        scratch of at least the plan's arc count.  ``dist`` is 1-D or
        ``(size, k)``.  A candidate through an unreached tail exceeds ∞
        (``INF`` plus an arc length still fits in int64, see
        ``graph.csr.INF``); the fold with the seeds, at most ∞, clamps
        it."""
        lo, hi, alo, ahi, starts, nonempty = plan
        values.fill(INF)
        if ahi > alo:
            lens = self.arc_len[alo:ahi]
            cand = cand[: ahi - alo]
            np.add(
                dist[self.arc_tail_pos[alo:ahi]],
                lens if dist.ndim == 1 else lens[:, None],
                out=cand,
            )
            values[nonempty] = np.minimum.reduceat(cand, starts)

    def _levels(self, dist: np.ndarray, seed: np.ndarray,
                relax: Callable) -> None:
        """The NumPy sweep: relax each level, then take the least of
        its candidates and its seeds.  One lane runs 1-D, after the
        scalar prefix."""
        self._fallback()
        if self._scratch is None:
            self._scratch = tuple(np.empty(r * self._lanes, dtype=np.int64)
                                  for r in self._scratch_rows)
        k, first = dist.shape[1], 0
        if k == 1:
            dist, seed = dist[:, 0], seed[:, 0]
            first = self._scalar_prefix(dist, seed)
        cand, values = (buf[: r * k].reshape(r, *dist.shape[1:])
                        for buf, r in zip(self._scratch, self._scratch_rows))
        for plan in self._plans[first:]:
            lo, hi = plan[0], plan[1]
            level = values[: hi - lo]
            relax(dist, plan, level, cand)
            np.minimum(level, seed[lo:hi], out=dist[lo:hi])

    def _scalar_prefix(self, dist: np.ndarray, seed: np.ndarray) -> int:
        """Sweep the leading small levels of one lane with plain Python
        loops, each position starting from its seed; returns the number
        of levels swept."""
        first = self._prefix_first
        tails = self._prefix_tails
        lens = self._prefix_lens
        P = len(first) - 1
        out = seed[:P].tolist()
        for p in range(P):
            best = out[p]
            for i in range(first[p], first[p + 1]):
                c = out[tails[i]] + lens[i]
                if c < best:
                    best = c
            out[p] = best
        dist[:P] = out
        return self._scalar_levels
