"""Metric-independent CH topology + fast weight customization.

``contract_graph`` pays its cost per *metric*: the witness
searches that prune shortcuts depend on arc weights, so a new traffic
snapshot means a full re-contraction.  This module splits the output
into the two halves the customizable-CH literature (Dibbelt et al.'s
CCH; Delling et al.'s CRP) keeps separate:

* a **topology artifact** (:class:`CHTopology`) — a contraction
  order, the *triangle closure* of the graph along that order, the
  lower-triangle enumeration needed to recompute shortcut weights, and
  the CSR instantiation plans for the upward/downward graphs.  A pure
  function of the graph *structure*; built once, reused for every
  metric.
* a **metric artifact** (:class:`CHMetric`) — per closure arc an exact
  distance, a kept flag and an unpack via, produced by
  :func:`customize` in two vectorized passes over the triangles.

The closure is witness-free on purpose.  A witness-pruned shortcut set
is only valid for the weights it was pruned against; the closure —
every ``{u, w}`` pair that shares a lower-ranked neighbour somewhere
along the order, exactly the fill-in of the elimination game over the
undirected neighbour relation — is valid for *any* weight assignment:
repeatedly replacing the highest interior vertex of a shortest path by
the corresponding triangle turns it into an up-down path of equal
length.  Both directions of every closure edge are arcs (a direction
with no base arc starts at ``INF``), which the perfect pass needs.

The price of the closure is its size; each metric pays it back by
pruning.  Perfect customization (CCH) makes every closure weight the
exact distance between its endpoints, after which an arc that an
upper or intermediate triangle matches is never needed by a query:
:meth:`CHTopology.instantiate` serves only the kept arcs, with levels
recomputed over them — a per-metric hierarchy not much larger than
the witness one, at the cost of a handful of triangle sweeps instead
of minutes of witness Dijkstras.

Ordering.  Without witness pruning the contraction order *is* the
preprocessing intelligence: fill-in explodes under a bad order.  The
witness CH's priority order turns out to be terrible for elimination
(its dense top core is near-complete), so by default the topology is
built with a batched **minimum-degree** order — independent sets of
degree-local minima retire per round, the textbook fill-reducing
heuristic, which lands within a small constant of the sparse-
elimination lower bound on grid-like road networks.  An explicit
``rank`` is still accepted.

Correctness of the level-ordered sweeps: every closure arc joins two
different levels (contracting the lower-ranked endpoint bumps the
other's level above it, and levels only grow), and a triangle with
middle ``v`` touches the two arcs whose lower-ranked endpoint is ``v``
and one arc whose endpoints both sit above ``v``'s level.  Bottom-up,
triangles grouped by middle-vertex level, ascending, read every arc
final; top-down, descending, the upper arc is final before the two
lower ones are relaxed through it.  Closure arcs are numbered by
``(level of lower endpoint, tail, head)``, which makes the weight
gathers of a level's triangle slice land in one contiguous block of
the weight array — the sweeps are memory-bound, and that locality is
most of their speed.

Upward searches.  The closure is the fill-in of an elimination game,
so the lowest-ranked up-neighbour of ``v`` is its parent in the
elimination tree, and every other up-neighbour of ``v`` is an
up-neighbour of that parent.  By induction, all that ``G↑`` reaches
from ``s`` lies among ``s``'s ancestors, which the tree lists in rank
order: an upward search can walk ``s, parent[s], …`` and relax each
reached vertex's arcs once, with no queue (CCH's elimination-tree
search).  :attr:`CHTopology.elimination_parent` derives the tree once
per topology and checks that property; :meth:`CHTopology.instantiate`
hands it to every hierarchy it makes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..graph.csr import INF, StaticGraph
from ..utils import native
from .batched import _cross_pairs
from .hierarchy import ContractionHierarchy

__all__ = [
    "CHTopology",
    "CHMetric",
    "build_topology",
    "customize",
]


def _as_int64(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


@dataclass
class CHMetric:
    """One metric over a fixed :class:`CHTopology`.

    ``weights[i]`` is closure arc ``i``'s exact distance (perfect
    customization), ``keep[i]`` whether the served hierarchy needs the
    arc, and ``via[i]`` the middle vertex of the lower triangle that
    unpacks a kept arc (-1 where the base arc itself is shortest, and
    on pruned arcs).  ``unreachable_base_arcs`` counts base arcs the
    bottom-up pass left at ``INF``; :meth:`CHTopology.instantiate`
    refuses such a metric.  ``topology_key`` pins the topology these
    arrays were customized against — :meth:`CHTopology.instantiate`
    refuses a mismatch.
    """

    topology_key: str
    weights: np.ndarray
    via: np.ndarray
    keep: np.ndarray
    unreachable_base_arcs: int = 0
    stats: dict = field(default_factory=dict)


@dataclass
class CHTopology:
    """The metric-independent half of a contraction hierarchy.

    Closure arcs are numbered by ``(level of lower-ranked endpoint,
    tail, head)`` — the order :func:`customize` sweeps them in.  The
    triangle arrays are pre-resolved (each triangle knows its two read
    arcs and its write arc by closure id) and pre-grouped by middle
    level, so customization does no index lookups at all.
    """

    n: int
    num_base_arcs: int
    rank: np.ndarray          # (n,) contraction order
    level: np.ndarray         # (n,) sweep levels of the closure
    arc_tail: np.ndarray      # (M,) closure arc tails
    arc_head: np.ndarray      # (M,) closure arc heads
    base_map: np.ndarray      # (graph.m,) original arc -> closure arc (-1 self-loop)
    tri_in: np.ndarray        # (T,) int32: read arc (u, v), head = middle
    tri_out: np.ndarray       # (T,) int32: read arc (v, w)
    tri_target: np.ndarray    # (T,) int32: written arc (u, w)
    tri_level_first: np.ndarray   # (L + 1,) triangle slice per mid level
    rev: np.ndarray           # (M,) int32: closure id of the reversed arc
    arc_level_first: np.ndarray   # (L + 1,) arc block per lower-endpoint level
    up_sel: np.ndarray        # closure arcs of G-up, CSR order by tail
    down_sel: np.ndarray      # closure arcs of G-down, CSR order by head
    key: str = ""
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            self.key = topology_key(self.rank, self.arc_tail, self.arc_head)

    @property
    def num_arcs(self) -> int:
        return int(self.arc_tail.size)

    @property
    def num_triangles(self) -> int:
        return int(self.tri_target.size)

    @cached_property
    def elimination_parent(self) -> np.ndarray | None:
        """Per vertex its lowest-ranked closure up-neighbour (``-1`` for
        none), or ``None`` unless every other closure up-neighbour of a
        vertex is one of its parent's too.

        Derived on first use and kept for the topology's life, never
        saved: a loaded topology derives it again.  Read-only, since
        every hierarchy :meth:`instantiate` makes shares it.
        """
        tail = self.arc_tail[self.up_sel]
        head = self.arc_head[self.up_sel]
        n = self.n
        by_rank = np.empty(n, dtype=np.int64)
        by_rank[self.rank] = np.arange(n, dtype=np.int64)
        low = np.full(n, n, dtype=np.int64)
        np.minimum.at(low, tail, self.rank[head])
        parent = np.full(n, -1, dtype=np.int64)
        has = low < n
        parent[has] = by_rank[low[has]]
        # Each other up-arc (v, w) needs the arc (parent[v], w).
        up = parent[tail]
        other = head != up
        keys = np.sort(tail * n + head)
        want = up[other] * n + head[other]
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        if want.size and not np.array_equal(keys[at], want):
            return None
        parent.flags.writeable = False
        return parent

    # -- (de)materialization (save_topology / load_topology) -------------

    _ARRAY_KEYS = (
        "rank", "level", "arc_tail", "arc_head", "base_map",
        "tri_in", "tri_out", "tri_target", "tri_level_first",
        "rev", "arc_level_first", "up_sel", "down_sel",
    )

    def arrays(self) -> dict:
        """The topology as a flat ``{key: array}`` dict."""
        return {k: getattr(self, k) for k in self._ARRAY_KEYS}

    @classmethod
    def from_arrays(cls, arrays: dict, *, num_base_arcs: int,
                    stats: dict | None = None) -> "CHTopology":
        """Rebuild (zero-copy) from :meth:`arrays` output.

        The customization kernels index raw memory through these
        arrays, so every index is bounds-checked first (``ValueError``
        names the first bad array).
        """
        fields = {k: arrays[k] for k in cls._ARRAY_KEYS}
        topo = cls(
            n=int(arrays["rank"].size),
            num_base_arcs=int(num_base_arcs),
            stats=dict(stats or {}),
            **fields,
        )
        n, m, t = topo.n, topo.num_arcs, topo.num_triangles
        bounds = {"level": n, "arc_tail": n, "arc_head": n, "rev": m,
                  "tri_in": m, "tri_out": m, "tri_target": m,
                  "up_sel": m, "down_sel": m}
        for key, size in (("level", n), ("arc_head", m), ("rev", m),
                          ("tri_in", t), ("tri_out", t)):
            if getattr(topo, key).size != size:
                raise ValueError(f"corrupt topology: {key} has wrong size")
        for key, bound in bounds.items():
            a = getattr(topo, key)
            if a.size and (a.min() < 0 or a.max() >= bound):
                raise ValueError(f"corrupt topology: {key} out of range")
        if topo.base_map.size and (topo.base_map.min() < -1
                                   or topo.base_map.max() >= m):
            raise ValueError("corrupt topology: base_map out of range")
        for key, total in (("tri_level_first", t), ("arc_level_first", m)):
            f = getattr(topo, key)
            if f.size == 0 or f[0] != 0 or f[-1] != total \
                    or np.any(np.diff(f) < 0):
                raise ValueError(f"corrupt topology: {key} is not a "
                                 "partition")
        return topo

    # -- instantiation ----------------------------------------------------

    def instantiate(self, metric: CHMetric) -> ContractionHierarchy:
        """Materialize the pruned :class:`ContractionHierarchy` of ``metric``.

        Emits only the kept arcs, gathered through the precomputed CSR
        plans (no sorting, no dedup), and recomputes the levels over
        the kept downward arcs — so each metric gets its own arc set
        and sweep layout over the topology's fixed ``rank``.  The
        kept upward arcs are closure arcs, so the topology's
        :attr:`elimination_parent` holds for every metric and goes
        along (``None`` if the closure fails its check).  A serving
        pool republishes the whole structure on every swap, so nothing
        else has to match.  Takes milliseconds, which keeps hot swaps
        cheap.
        """
        if metric.topology_key != self.key:
            raise ValueError(
                f"metric was customized for topology {metric.topology_key!r}, "
                f"not {self.key!r}"
            )
        shape = (self.num_arcs,)
        if not (metric.weights.shape == metric.via.shape
                == metric.keep.shape == shape) \
                or metric.keep.dtype != bool:
            raise ValueError("metric arrays do not match the closure")
        keep = metric.keep
        kept = metric.weights[keep]
        if metric.unreachable_base_arcs or (
                kept.size and (kept.max() >= INF or kept.min() < 0)):
            # An INF input weight is refused as before: closures are
            # expressed as a large *finite* penalty, which the sweeps
            # add in plain int64.  The kept weights are checked too,
            # since a loaded metric's count and marks are not trusted.
            raise ValueError(
                "metric contains INF or negative arc weights; model "
                "closures as a large finite penalty before instantiating"
            )
        up = self.up_sel[keep[self.up_sel]]
        down = self.down_sel[keep[self.down_sel]]
        upward = StaticGraph.from_csr(
            _csr_first(self.arc_tail[up], self.n),
            np.ascontiguousarray(self.arc_head[up]), metric.weights[up],
        )
        downward_rev = StaticGraph.from_csr(
            _csr_first(self.arc_head[down], self.n),
            np.ascontiguousarray(self.arc_tail[down]), metric.weights[down],
        )
        # Longest-path levels over the kept downward arcs.  Closure
        # order groups them by the topology level of their lower
        # endpoint, so each block reads only final levels.
        by_level = np.sort(down)
        upper, lower = self.arc_tail[by_level], self.arc_head[by_level]
        block = np.searchsorted(by_level, self.arc_level_first).tolist()
        level = np.zeros(self.n, dtype=np.int64)
        for lo, hi in zip(block[:-1], block[1:]):
            if hi > lo:
                np.maximum.at(level, upper[lo:hi], level[lower[lo:hi]] + 1)
        shortcuts = keep.copy()
        shortcuts[self.base_map[self.base_map >= 0]] = False
        stats = {
            "strategy": "customized",
            "topology_key": self.key,
            "upward_arcs": upward.m,
            "downward_arcs": downward_rev.m,
            **metric.stats,
        }
        return ContractionHierarchy(
            n=self.n,
            rank=self.rank,
            level=level,
            upward=upward,
            upward_via=np.ascontiguousarray(metric.via[up]),
            downward_rev=downward_rev,
            downward_via=np.ascontiguousarray(metric.via[down]),
            num_shortcuts=int(np.count_nonzero(shortcuts)),
            preprocessing_stats=stats,
            elimination_parent=self.elimination_parent,
        )


def _csr_first(tails: np.ndarray, n: int) -> np.ndarray:
    """CSR offsets of arcs already grouped by ``tails``."""
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=first[1:])
    return first


def topology_key(rank: np.ndarray, arc_tail: np.ndarray,
                 arc_head: np.ndarray) -> str:
    """Content hash pinning a topology (rank order + closure arc set)."""
    h = hashlib.blake2b(digest_size=16)
    for a in (rank, arc_tail, arc_head):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Topology construction


def _undirected_keys(tail: np.ndarray, head: np.ndarray, n: int) -> np.ndarray:
    """Distinct undirected endpoint keys of an arc set."""
    lo = np.minimum(tail, head)
    hi = np.maximum(tail, head)
    return np.unique(lo * n + hi)


def build_topology(graph: StaticGraph, rank: np.ndarray | None = None) -> CHTopology:
    """Build the triangle closure of ``graph`` along an elimination order.

    Runs the contraction as a pure *elimination game* over the
    undirected neighbour relation — vertices retire in order, every
    ordered pair of the retiring vertex's live neighbours becomes a
    closure arc, no witness searches —
    batched over independent sets of order-local minima exactly like
    :func:`~repro.ch.batched.contract_graph` (fill-in is
    schedule-independent, so the batched closure equals the sequential
    one).

    With ``rank=None`` (the default) the order is chosen greedily by
    **minimum degree**: each round retires the vertices whose
    ``(live-neighbour count, id)`` key is a local minimum among their
    live neighbours.  This is the fill-reducing choice — reusing a
    witness CH's priority order instead typically inflates the closure
    by an order of magnitude, because without witness pruning its
    dense top core fills in almost completely.
    """
    t_start = time.perf_counter()
    n = graph.n
    if n and n >= np.iinfo(np.int64).max // max(n, 1):
        raise ValueError("graph too large for packed pair keys")
    dynamic = rank is None
    if dynamic:
        rank = np.full(n, -1, dtype=np.int64)
    else:
        rank = _as_int64(rank)
        if rank.shape != (n,):
            raise ValueError("rank has wrong size")
        if not np.array_equal(np.sort(rank), np.arange(n)):
            raise ValueError("rank is not a permutation")

    # Base closure arcs: the original arcs minus self-loops, deduped by
    # (tail, head) — arc weights play no role here, customization folds
    # parallels back in via base_map.
    tails0 = graph.arc_tails()
    heads0 = graph.arc_head
    proper = tails0 != heads0
    base_keys = tails0[proper] * n + heads0[proper]
    ukeys, inv = np.unique(base_keys, return_inverse=True)
    base_map = np.full(graph.m, -1, dtype=np.int64)
    base_map[np.flatnonzero(proper)] = inv
    num_base = int(ukeys.size)

    # The elimination runs over the undirected neighbour relation, as
    # in CCH: every base arc's reverse joins the closure (with no base
    # weight), so the closure holds both directions of each edge — the
    # perfect pass relaxes an arc through its triangle's reversed legs.
    # A symmetric graph gains nothing here.
    rev_keys = (ukeys % n) * n + ukeys // n
    rev_only = np.setdiff1d(rev_keys, ukeys)
    closure_tail = [ukeys // n, rev_only // n]
    closure_head = [ukeys % n, rev_only % n]
    num_arcs = num_base + int(rev_only.size)

    # Live working set: arcs between not-yet-retired vertices, kept
    # sorted by packed (tail, head) key so the new-vs-known lookup is
    # a plain searchsorted and fresh arcs merge in without re-sorting.
    # A symmetric arc set stays symmetric: a retiring vertex's in- and
    # out-neighbours coincide, so every fill pair arrives both ways.
    cur_key = np.concatenate([ukeys, rev_only])
    cur_id = np.arange(num_arcs, dtype=np.int64)
    key_order = np.argsort(cur_key, kind="stable")
    cur_key = cur_key[key_order]
    cur_id = cur_id[key_order]
    cur_tail = cur_key // n
    cur_head = cur_key % n
    alive = np.ones(n, dtype=bool)
    level = np.zeros(n, dtype=np.int64)
    vidx = np.full(n, -1, dtype=np.int64)
    next_rank = 0

    # Undirected neighbour relation, also kept key-sorted, with live
    # degrees maintained incrementally — recomputing them with a sort
    # per round would dominate the build.
    und_key = _undirected_keys(cur_tail, cur_head, n)
    und_a = und_key // n
    und_b = und_key % n
    deg = np.zeros(n, dtype=np.int64)
    if und_a.size:
        deg += np.bincount(und_a, minlength=n)
        deg += np.bincount(und_b, minlength=n)

    # Triangles accumulate as contiguous per-(level, round) slice views
    # so the final level-grouped arrays come out of one concatenation —
    # a stable sort of hundreds of millions of rows would dominate the
    # build.  Within a round the pair enumeration is grouped by middle
    # vertex, so grouping a round by level is a permutation of whole
    # owner segments: a tiny per-owner sort plus vectorized arithmetic.
    tri_parts_in: list[list[np.ndarray]] = []
    tri_parts_out: list[list[np.ndarray]] = []
    tri_parts_tgt: list[list[np.ndarray]] = []
    rounds = 0
    key_max = np.iinfo(np.int64).max

    ids = np.arange(n, dtype=np.int64)
    while alive.any():
        rounds += 1
        if dynamic:
            # Greedy minimum degree: key = (live degree, id), packed.
            prio = deg * n + ids
        else:
            prio = rank
        # Order-local minima among live neighbours: an independent set
        # (neighbours cannot both be minimal), and no neighbour of a
        # batch member is itself in the batch — so retiring the whole
        # batch at once equals retiring its members one by one.
        min_nbr = np.full(n, key_max, dtype=np.int64)
        if und_a.size:
            np.minimum.at(min_nbr, und_a, prio[und_b])
            np.minimum.at(min_nbr, und_b, prio[und_a])
        in_batch = alive & (prio < min_nbr)
        batch = np.flatnonzero(in_batch)
        if dynamic:
            rank[batch] = next_rank + np.arange(batch.size, dtype=np.int64)
            next_rank += int(batch.size)

        head_in = in_batch[cur_head]
        tail_in = in_batch[cur_tail]
        in_sel = np.flatnonzero(head_in)
        out_sel = np.flatnonzero(tail_in)
        vidx[batch] = np.arange(batch.size, dtype=np.int64)

        in_owner = vidx[cur_head[in_sel]]
        order_i = np.argsort(in_owner, kind="stable")
        in_owner = in_owner[order_i]
        in_src = cur_tail[in_sel][order_i]
        in_id = cur_id[in_sel][order_i]

        out_owner = vidx[cur_tail[out_sel]]
        order_o = np.argsort(out_owner, kind="stable")
        out_owner = out_owner[order_o]
        out_dst = cur_head[out_sel][order_o]
        out_id = cur_id[out_sel][order_o]

        pair_owner, in_idx, out_idx = _cross_pairs(
            in_owner, out_owner, batch.size
        )
        if pair_owner.size:
            keep = in_src[in_idx] != out_dst[out_idx]
            pair_owner, in_idx, out_idx = (
                pair_owner[keep], in_idx[keep], out_idx[keep]
            )
        if pair_owner.size:
            u = in_src[in_idx]
            w = out_dst[out_idx]
            pkey = u * n + w
            # Existing (u, w) arcs: any closure arc between two live
            # vertices is still in the working set, so a sorted lookup
            # over the live arcs decides new-vs-known exactly.
            pos = np.searchsorted(cur_key, pkey)
            pos_c = np.minimum(pos, max(cur_key.size - 1, 0))
            hit = (
                (cur_key[pos_c] == pkey)
                if cur_key.size else np.zeros(pkey.size, dtype=bool)
            )
            target = np.empty(pkey.size, dtype=np.int64)
            target[hit] = cur_id[pos_c[hit]]
            fresh = ~hit
            if fresh.any():
                new_keys, new_inv = np.unique(pkey[fresh], return_inverse=True)
                target[fresh] = num_arcs + new_inv
                closure_tail.append(new_keys // n)
                closure_head.append(new_keys % n)
                new_ids = num_arcs + np.arange(new_keys.size, dtype=np.int64)
                at = np.searchsorted(cur_key, new_keys)
                cur_key = np.insert(cur_key, at, new_keys)
                cur_tail = np.insert(cur_tail, at, new_keys // n)
                cur_head = np.insert(cur_head, at, new_keys % n)
                cur_id = np.insert(cur_id, at, new_ids)
                # The inserted arcs also carry head_in/tail_in = False
                # for the retirement filter below.
                head_in = np.insert(
                    head_in, at, np.zeros(new_keys.size, dtype=bool)
                )
                tail_in = np.insert(
                    tail_in, at, np.zeros(new_keys.size, dtype=bool)
                )
                num_arcs += int(new_keys.size)
                # New undirected neighbour pairs (a fresh (u, w) whose
                # reverse already lives adds none).
                cand = _undirected_keys(new_keys // n, new_keys % n, n)
                upos = np.searchsorted(und_key, cand)
                upos_c = np.minimum(upos, max(und_key.size - 1, 0))
                new_und = (
                    cand[und_key[upos_c] != cand]
                    if und_key.size else cand
                )
                if new_und.size:
                    uat = np.searchsorted(und_key, new_und)
                    und_key = np.insert(und_key, uat, new_und)
                    und_a = np.insert(und_a, uat, new_und // n)
                    und_b = np.insert(und_b, uat, new_und % n)
                    deg += np.bincount(new_und // n, minlength=n)
                    deg += np.bincount(new_und % n, minlength=n)
            # Record the round's triangles grouped by mid level.  The
            # pairs arrive grouped by owner (one level per owner), so
            # per-level grouping permutes whole owner segments: sort
            # the owners by (level, position) — a tiny array — then
            # move segments with vectorized offset arithmetic.
            own_lvl = level[batch]
            sizes = np.bincount(pair_owner, minlength=batch.size)
            seg_start = np.concatenate([[0], np.cumsum(sizes)])
            o_order = np.argsort(own_lvl, kind="stable")
            starts = seg_start[o_order]
            lens = sizes[o_order]
            out_off = np.concatenate([[0], np.cumsum(lens)])
            perm = (
                np.arange(pair_owner.size, dtype=np.int64)
                - np.repeat(out_off[:-1], lens)
                + np.repeat(starts, lens)
            )
            r_in = in_id[in_idx][perm]
            r_out = out_id[out_idx][perm]
            r_tgt = target[perm]
            lvl_sorted = np.repeat(own_lvl[o_order], lens)
            run_end = np.concatenate([
                np.flatnonzero(np.diff(lvl_sorted)) + 1, [lvl_sorted.size]
            ])
            run_start = 0
            for e in run_end:
                lvl = int(lvl_sorted[run_start])
                while len(tri_parts_in) <= lvl:
                    tri_parts_in.append([])
                    tri_parts_out.append([])
                    tri_parts_tgt.append([])
                tri_parts_in[lvl].append(r_in[run_start:e])
                tri_parts_out[lvl].append(r_out[run_start:e])
                tri_parts_tgt[lvl].append(r_tgt[run_start:e])
                run_start = int(e)

        # Neighbour levels rise above the retiring vertex; the batch
        # members' own levels are final (no neighbour of a member is in
        # the batch).
        if in_src.size:
            np.maximum.at(level, in_src, level[batch[in_owner]] + 1)
        if out_dst.size:
            np.maximum.at(level, out_dst, level[batch[out_owner]] + 1)

        alive[batch] = False
        vidx[batch] = -1
        arc_keep = ~(head_in | tail_in)
        cur_key = cur_key[arc_keep]
        cur_tail = cur_tail[arc_keep]
        cur_head = cur_head[arc_keep]
        cur_id = cur_id[arc_keep]
        und_gone = in_batch[und_a] | in_batch[und_b]
        if und_gone.any():
            gone = np.flatnonzero(und_gone)
            deg -= np.bincount(und_a[gone], minlength=n)
            deg -= np.bincount(und_b[gone], minlength=n)
            und_keep = ~und_gone
            und_key = und_key[und_keep]
            und_a = und_a[und_keep]
            und_b = und_b[und_keep]

    arc_tail = np.concatenate(closure_tail) if closure_tail else _as_int64([])
    arc_head = np.concatenate(closure_head) if closure_head else _as_int64([])

    # Renumber closure arcs by (level of lower-ranked endpoint, tail,
    # head): the two read-gathers of a level's triangle slice then hit
    # one contiguous block of the weight array.
    low_level = level[np.where(rank[arc_tail] < rank[arc_head],
                               arc_tail, arc_head)]
    order = np.lexsort((arc_head, arc_tail, low_level))
    arc_tail = np.ascontiguousarray(arc_tail[order])
    arc_head = np.ascontiguousarray(arc_head[order])
    remap = np.empty(order.size, dtype=np.int64)
    remap[order] = np.arange(order.size, dtype=np.int64)
    valid = base_map >= 0
    base_map[valid] = remap[base_map[valid]]

    num_levels = int(level.max()) + 1 if n else 0
    tri_level_first = np.zeros(num_levels + 1, dtype=np.int64)
    flat_in: list[np.ndarray] = []
    flat_out: list[np.ndarray] = []
    flat_tgt: list[np.ndarray] = []
    total = 0
    for lvl in range(num_levels):
        if lvl < len(tri_parts_in):
            for part in tri_parts_in[lvl]:  # creation order kept
                total += part.size
            flat_in.extend(tri_parts_in[lvl])
            flat_out.extend(tri_parts_out[lvl])
            flat_tgt.extend(tri_parts_tgt[lvl])
        tri_level_first[lvl + 1] = total
    if num_arcs > np.iinfo(np.int32).max or total > np.iinfo(np.int32).max:
        raise ValueError("closure exceeds int32 triangle indexing")
    remap32 = remap.astype(np.int32)
    if flat_in:
        tri_in = remap32[np.concatenate(flat_in)]
        tri_out = remap32[np.concatenate(flat_out)]
        tri_target = remap32[np.concatenate(flat_tgt)]
    else:
        tri_in = np.zeros(0, dtype=np.int32)
        tri_out = np.zeros(0, dtype=np.int32)
        tri_target = np.zeros(0, dtype=np.int32)

    # Reverse of each closure arc (the closure is symmetric), and the
    # arc block of each level of the lower-ranked endpoint.
    keys = arc_tail * n + arc_head
    by_key = np.argsort(keys)
    rev = by_key[np.searchsorted(keys[by_key], arc_head * n + arc_tail)]
    if not np.array_equal(arc_tail[rev], arc_head):
        raise AssertionError("closure is not symmetric")
    arc_level_first = np.searchsorted(low_level[order],
                                      np.arange(num_levels + 1))

    # Instantiation plans: G-up CSR by tail, reversed G-down CSR by head.
    up_mask = rank[arc_tail] < rank[arc_head]
    up_arcs = np.flatnonzero(up_mask)
    up_sel = up_arcs[np.lexsort((arc_head[up_arcs], arc_tail[up_arcs]))]
    down_arcs = np.flatnonzero(~up_mask)
    down_sel = down_arcs[np.lexsort((arc_tail[down_arcs], arc_head[down_arcs]))]

    stats = {
        "strategy": "topology",
        "order": "min-degree" if dynamic else "given",
        "seconds": time.perf_counter() - t_start,
        "rounds": rounds,
        "base_arcs": num_base,
        "closure_arcs": int(arc_tail.size),
        "fill_arcs": int(arc_tail.size) - num_base,
        "triangles": int(tri_target.size),
        "levels": num_levels,
    }
    return CHTopology(
        n=n,
        num_base_arcs=num_base,
        rank=rank,
        level=level,
        arc_tail=arc_tail,
        arc_head=arc_head,
        base_map=base_map,
        tri_in=tri_in,
        tri_out=tri_out,
        tri_target=tri_target,
        tri_level_first=tri_level_first,
        rev=rev.astype(np.int32),
        arc_level_first=arc_level_first,
        up_sel=up_sel,
        down_sel=down_sel,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Customization


def customize(topology: CHTopology, weights) -> CHMetric:
    """Perfect weights, kept-arc mask and unpack vias of every closure arc.

    ``weights`` is aligned with the arc order of the graph the
    topology was built from (one entry per original arc; ``INF``
    allowed — that is how closures are expressed).  Labels are
    lexicographic ``(weight, hops)`` pairs, hops counting original
    arcs.  Two passes over the triangle levels, each compiled or a
    per-level NumPy loop (:mod:`repro.utils.native`):

    1. bottom-up: each lower triangle ``(u->v, v->w)``, ``v`` lowest,
       relaxes ``u->w``; now every arc is shortest among paths through
       lower-ranked vertices only.  The pass also records each arc's
       winning triangle of the highest middle level;
    2. top-down (perfect): the same triangle relaxes ``v->w`` through
       ``v->u->w`` and ``u->v`` through ``u->w->v``; afterwards every
       label is the exact distance between its endpoints, and an arc
       that a walk through a higher vertex matches is marked unneeded:
       a query can take the two legs instead.  The hop count breaks
       weight ties, so the legs are strictly smaller and a zero-weight
       cycle can never lose all its arcs.

    A kept arc's label is its bottom-up label, and the middle vertex of
    its winning triangle is its via.  That triangle's legs are kept: a
    leg some higher vertex ``z`` replaces would make the triangle
    through ``z`` a winner of a higher middle level.  So unpacking never
    leaves the instantiated hierarchy.
    """
    t0 = time.perf_counter()
    weights = _as_int64(weights)
    if weights.shape != topology.base_map.shape:
        raise ValueError(
            f"expected {topology.base_map.size} arc weights, "
            f"got {weights.size}"
        )
    if weights.size and weights.min() < 0:
        raise ValueError("arc weights must be non-negative")

    m = topology.num_arcs
    inf = int(INF)
    w = np.full(m, INF, dtype=np.int64)
    hops = np.zeros(m, dtype=np.int32)
    valid = topology.base_map >= 0
    base = topology.base_map[valid]
    np.minimum.at(w, base, np.minimum(weights[valid], INF))
    hops[base] = 1

    tri = (topology.tri_in, topology.tri_out, topology.tri_target)
    lvl_first = topology.tri_level_first
    win = np.full(m, -1, dtype=np.int32)
    used_native = native.customize_pass(w, hops, win, *tri, lvl_first, inf)
    # What instantiate refuses: a base arc still INF after the
    # bottom-up pass (the perfect pass may route around it later).
    unreachable = int(np.count_nonzero(w[base] >= INF))

    keep = np.ones(m, dtype=bool)
    native.perfect_pass(w, hops, topology.rev, *tri, lvl_first, keep, inf)
    keep &= w < INF

    # Base arcs (one hop) unpack to themselves.
    via = np.full(m, -1, dtype=np.int64)
    won = np.flatnonzero(keep & (hops > 1))
    via[won] = topology.arc_head[topology.tri_in[win[won]]]

    stats = {
        "customize_seconds": time.perf_counter() - t0,
        "native": bool(used_native),
        "triangles_relaxed": int(topology.num_triangles),
        "levels": int(lvl_first.size - 1),
        "kept_arcs": int(np.count_nonzero(keep)),
    }
    return CHMetric(
        topology_key=topology.key, weights=w, via=via, keep=keep,
        unreachable_base_arcs=unreachable, stats=stats,
    )
