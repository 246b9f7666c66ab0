"""Metric-independent CH topology + fast weight customization.

``contract_graph_batched`` pays its cost per *metric*: the witness
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
* a **metric artifact** (:class:`CHMetric`) — one weight + unpack-via
  value per closure arc, produced by :func:`customize` in a single
  bottom-up vectorized pass.

The closure is witness-free on purpose.  A witness-pruned shortcut set
is only valid for the weights it was pruned against; the closure —
every ``(u, w)`` pair that shares a lower-ranked neighbour somewhere
along the order, exactly the fill-in of the elimination game — is
valid for *any* weight assignment: repeatedly replacing the highest
interior vertex of a shortest path by the corresponding triangle turns
it into an up-down path of equal length.  The price is a larger arc
set (and correspondingly slower queries — the usual CCH trade); the
payoff is that :func:`customize` is a handful of vectorized
scatter-min sweeps instead of minutes of witness Dijkstras.

Ordering.  Without witness pruning the contraction order *is* the
preprocessing intelligence: fill-in explodes under a bad order.  The
witness CH's priority order turns out to be terrible for elimination
(its dense top core is near-complete), so by default the topology is
built with a batched **minimum-degree** order — independent sets of
degree-local minima retire per round, the textbook fill-reducing
heuristic, which lands within a small constant of the sparse-
elimination lower bound on grid-like road networks.  An explicit
``rank`` is still accepted.

Correctness of the level-ordered sweep: every closure arc joins two
different levels (contracting the lower-ranked endpoint bumps the
other's level above it, and levels only grow), a triangle with middle
``v`` *reads* the two arcs whose lower-ranked endpoint is ``v`` and
*writes* an arc whose endpoints both sit above ``v``'s level — so
processing triangles grouped by middle-vertex level, ascending, sees
every read arc final before any triangle reads it.  Closure arcs are
numbered by ``(level of lower endpoint, tail, head)``, which makes the
two weight gathers of a level's triangle slice land in one contiguous
block of the weight array — the sweep is memory-bound, and that
locality is most of its speed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

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


def _as_int32(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int32)


@dataclass
class CHMetric:
    """One metric over a fixed :class:`CHTopology`.

    ``weights[i]`` / ``via[i]`` describe closure arc ``i``; ``via`` is
    the middle vertex of the best triangle (-1 where the base arc
    itself is shortest, or where vias were skipped).  ``topology_key``
    pins the topology these arrays were customized against —
    :meth:`CHTopology.instantiate` refuses a mismatch.
    """

    topology_key: str
    weights: np.ndarray
    via: np.ndarray
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
    up_sel: np.ndarray        # closure arcs of G-up, CSR order by tail
    up_first: np.ndarray      # (n + 1,)
    down_sel: np.ndarray      # closure arcs of G-down, reversed CSR order
    down_first: np.ndarray    # (n + 1,) indexed by the lower-ranked head
    key: str = ""
    stats: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.key:
            self.key = topology_key(self.rank, self.arc_tail, self.arc_head)

    @property
    def num_arcs(self) -> int:
        return int(self.arc_tail.size)

    @property
    def num_shortcuts(self) -> int:
        return self.num_arcs - self.num_base_arcs

    @property
    def num_triangles(self) -> int:
        return int(self.tri_target.size)

    # -- (de)materialization (save_topology / load_topology) -------------

    _ARRAY_KEYS = (
        "rank", "level", "arc_tail", "arc_head", "base_map",
        "tri_in", "tri_out", "tri_target", "tri_level_first",
        "up_sel", "up_first", "down_sel", "down_first",
    )

    def arrays(self) -> dict:
        """The topology as a flat ``{key: array}`` dict."""
        return {k: getattr(self, k) for k in self._ARRAY_KEYS}

    @classmethod
    def from_arrays(cls, arrays: dict, *, num_base_arcs: int,
                    stats: dict | None = None) -> "CHTopology":
        """Rebuild (zero-copy) from :meth:`arrays` output."""
        fields = {k: arrays[k] for k in cls._ARRAY_KEYS}
        return cls(
            n=int(arrays["rank"].size),
            num_base_arcs=int(num_base_arcs),
            stats=dict(stats or {}),
            **fields,
        )

    # -- instantiation ----------------------------------------------------

    def instantiate(self, metric: CHMetric) -> ContractionHierarchy:
        """Materialize a :class:`ContractionHierarchy` for ``metric``.

        Pure gathers through the precomputed CSR plans — no sorting,
        no dedup — so a hot swap can rebuild the serving hierarchy in
        milliseconds.  Every metric over one topology yields the same
        CSR *structure* (identical ``first`` / head arrays, only
        weights differ), which is what lets a serving pool swap
        weights in place.
        """
        if metric.topology_key != self.key:
            raise ValueError(
                f"metric was customized for topology {metric.topology_key!r}, "
                f"not {self.key!r}"
            )
        if metric.weights.size and int(metric.weights.max()) >= INF:
            # The sweep engines add labels and arc lengths in plain
            # int64 (and may narrow sweep arcs), so an INF arc weight
            # would overflow mid-sweep.  Closures must be expressed as
            # a large *finite* penalty instead.
            raise ValueError(
                "metric contains INF arc weights; model closures as a "
                "large finite penalty before instantiating"
            )
        upward = StaticGraph.from_csr(
            self.up_first, np.ascontiguousarray(self.arc_head[self.up_sel]),
            metric.weights[self.up_sel],
        )
        downward_rev = StaticGraph.from_csr(
            self.down_first, np.ascontiguousarray(self.arc_tail[self.down_sel]),
            metric.weights[self.down_sel],
        )
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
            level=self.level,
            upward=upward,
            upward_via=np.ascontiguousarray(metric.via[self.up_sel]),
            downward_rev=downward_rev,
            downward_via=np.ascontiguousarray(metric.via[self.down_sel]),
            num_shortcuts=self.num_shortcuts,
            preprocessing_stats=stats,
        )


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

    Runs the contraction as a pure *elimination game* — vertices
    retire in order, every (in-neighbour, out-neighbour) pair of the
    retiring vertex becomes a closure arc, no witness searches —
    batched over independent sets of order-local minima exactly like
    :func:`~repro.ch.batched.contract_graph_batched` (fill-in is
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

    closure_tail = [ukeys // n]
    closure_head = [ukeys % n]
    num_arcs = num_base

    # Live working set: arcs between not-yet-retired vertices, kept
    # sorted by packed (tail, head) key so the new-vs-known lookup is
    # a plain searchsorted and fresh arcs merge in without re-sorting.
    cur_key = ukeys
    cur_tail = ukeys // n
    cur_head = ukeys % n
    cur_id = np.arange(num_base, dtype=np.int64)
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
    low = np.where(rank[arc_tail] < rank[arc_head], arc_tail, arc_head)
    order = np.lexsort((arc_head, arc_tail, level[low]))
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

    # Instantiation plans: G-up CSR by tail, reversed G-down CSR by head.
    up_mask = rank[arc_tail] < rank[arc_head]
    up_arcs = np.flatnonzero(up_mask)
    up_sel = up_arcs[np.lexsort((arc_head[up_arcs], arc_tail[up_arcs]))]
    up_first = np.zeros(n + 1, dtype=np.int64)
    np.add.at(up_first, arc_tail[up_sel] + 1, 1)
    np.cumsum(up_first, out=up_first)
    down_arcs = np.flatnonzero(~up_mask)
    down_sel = down_arcs[np.lexsort((arc_tail[down_arcs], arc_head[down_arcs]))]
    down_first = np.zeros(n + 1, dtype=np.int64)
    np.add.at(down_first, arc_head[down_sel] + 1, 1)
    np.cumsum(down_first, out=down_first)

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
        up_sel=up_sel,
        up_first=up_first,
        down_sel=down_sel,
        down_first=down_first,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Customization


def customize(topology: CHTopology, weights, *,
              with_vias: bool = True) -> CHMetric:
    """Recompute every closure-arc weight for ``weights``.

    ``weights`` is aligned with the arc order of the graph the
    topology was built from (one entry per original arc; ``INF``
    allowed — that is how closures are expressed).  One bottom-up pass
    over the triangle levels: per level, two block-local gathers, one
    add, one ``np.minimum.at`` scatter.  Deterministic: the base arc
    wins ties (``via = -1``), and among equal triangles the lowest
    enumeration index — (mid level, creation order) — wins.

    ``with_vias=False`` skips the second sweep that recovers unpack
    middles; distances are unaffected (a serving stack that never
    unpacks paths can halve its customization time).
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
    weights = np.minimum(weights, INF)

    m = topology.num_arcs
    w = np.full(m, INF, dtype=np.int64)
    valid = topology.base_map >= 0
    np.minimum.at(w, topology.base_map[valid], weights[valid])
    w_base = w.copy() if with_vias else None

    tri_in = topology.tri_in
    tri_out = topology.tri_out
    tri_target = topology.tri_target
    lvl_first = topology.tri_level_first

    # The fused C kernel and the per-level NumPy loop are bit-identical:
    # a level's read arcs live in its own arc block while its written
    # arcs lie strictly higher, so per-triangle processing in stored
    # order cannot observe a same-level write.
    used_native = native.customize_pass(
        w, tri_in, tri_out, tri_target, int(INF)
    )
    if not used_native:
        for lo, hi in zip(lvl_first[:-1], lvl_first[1:]):
            if hi == lo:
                continue
            # Weights are clipped to INF, so a sum involving INF lands
            # in [INF, 2^63 - 2] — no overflow — and clamps back to
            # INF; no separate unreachable mask is needed.
            cand = w[tri_in[lo:hi]]
            cand += w[tri_out[lo:hi]]
            np.minimum(cand, INF, out=cand)
            np.minimum.at(w, tri_target[lo:hi], cand)

    via = np.full(m, -1, dtype=np.int64)
    if with_vias:
        # Second sweep: every read arc is final when its level is
        # processed (same invariant as the first sweep), so the winning
        # triangle's candidate reproduces exactly and the lowest
        # matching enumeration index is the canonical via.  Only arcs a
        # triangle strictly improved over the base metric get one.
        no_win = np.iinfo(np.int32).max
        win = np.full(m, no_win, dtype=np.int32)
        if not native.via_pass(w, tri_in, tri_out, tri_target, win,
                               int(INF)):
            for lo, hi in zip(lvl_first[:-1], lvl_first[1:]):
                if hi == lo:
                    continue
                cand = w[tri_in[lo:hi]]
                cand += w[tri_out[lo:hi]]
                np.minimum(cand, INF, out=cand)
                tgt = tri_target[lo:hi]
                eq = np.flatnonzero(cand == w[tgt])
                np.minimum.at(
                    win, tgt[eq], _as_int32(lo + eq)
                )
        improved = np.flatnonzero((w < w_base) & (win != no_win))
        via[improved] = topology.arc_head[tri_in[win[improved]]]

    stats = {
        "customize_seconds": time.perf_counter() - t0,
        "native": bool(used_native),
        "triangles_relaxed": int(tri_target.size),
        "levels": int(lvl_first.size - 1),
        "with_vias": bool(with_vias),
    }
    return CHMetric(
        topology_key=topology.key, weights=w, via=via, stats=stats
    )
