"""The output of CH preprocessing.

A :class:`ContractionHierarchy` holds, for the input graph ``G``:

* ``rank`` — the contraction order (``rank[v] = i`` means ``v`` was the
  ``i``-th vertex shortcut; higher rank = more important),
* ``level`` — the PHAST level ``L(v)`` (Section IV-A),
* the augmented arc set ``A ∪ A+`` split into the *upward* graph
  ``G↑`` (out-adjacency, tail rank < head rank) and the *downward*
  graph ``G↓`` stored reversed (in-adjacency: for each vertex, the
  incoming arcs from higher-ranked tails — exactly what PHAST's sweep
  scans),
* per-arc ``via`` vertices for shortcut unpacking (-1 = original arc),
* on a customized hierarchy, the elimination-tree ``parent`` of its
  topology, which lets upward searches walk ancestors instead of
  running a heap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import StaticGraph

__all__ = [
    "ContractionHierarchy",
    "assemble_hierarchy",
    "build_csr_with_payload",
]


def build_csr_with_payload(
    n: int,
    tails: np.ndarray,
    heads: np.ndarray,
    lens: np.ndarray,
    payload: np.ndarray,
) -> tuple[StaticGraph, np.ndarray]:
    """CSR-build arcs with one extra per-arc attribute, deduping parallels.

    Parallel arcs are collapsed to the shortest (ties: lowest payload
    wins, deterministically); the payload array is carried through the
    same reordering so element ``i`` still describes arc ``i`` of the
    returned graph.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    payload = np.asarray(payload, dtype=np.int64)
    if tails.size:
        order = np.lexsort((payload, lens, heads, tails))
        tails, heads, lens, payload = (
            tails[order],
            heads[order],
            lens[order],
            payload[order],
        )
        keep = np.empty(tails.size, dtype=bool)
        keep[0] = True
        keep[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
        tails, heads, lens, payload = (
            tails[keep],
            heads[keep],
            lens[keep],
            payload[keep],
        )
    # Arcs are now sorted by (tail, head); a stable tail sort preserves
    # that, so payload order matches the graph's arc order.
    graph = StaticGraph(n, tails, heads, lens)
    return graph, payload


def assemble_hierarchy(
    graph: StaticGraph,
    rank: np.ndarray,
    level: np.ndarray,
    sc_tails: np.ndarray,
    sc_heads: np.ndarray,
    sc_lens: np.ndarray,
    sc_vias: np.ndarray,
    *,
    num_shortcuts: int,
    stats: dict,
) -> "ContractionHierarchy":
    """Split original arcs + shortcuts into the upward/downward graphs.

    Shared by both contractors: given the contraction order
    (``rank``), the PHAST levels and the shortcut arc arrays, build
    ``G↑`` and the reversed ``G↓`` with their ``via`` payloads and wrap
    everything into a :class:`ContractionHierarchy`.  ``stats`` is
    augmented with the final arc counts.
    """
    n = graph.n
    orig_tails = graph.arc_tails()
    tails = np.concatenate([orig_tails, sc_tails]) if sc_tails.size else orig_tails
    heads = (
        np.concatenate([graph.arc_head, sc_heads]) if sc_heads.size else graph.arc_head
    )
    lens = np.concatenate([graph.arc_len, sc_lens]) if sc_lens.size else graph.arc_len
    vias = np.concatenate(
        [np.full(graph.m, -1, dtype=np.int64), sc_vias]
    ) if sc_vias.size else np.full(graph.m, -1, dtype=np.int64)

    # Self loops can never be upward or downward; drop them.
    proper = tails != heads
    tails, heads, lens, vias = tails[proper], heads[proper], lens[proper], vias[proper]

    up_mask = rank[tails] < rank[heads]
    upward, upward_via = build_csr_with_payload(
        n, tails[up_mask], heads[up_mask], lens[up_mask], vias[up_mask]
    )
    down_mask = ~up_mask
    # Store the downward graph reversed: adjacency by head (the
    # lower-ranked endpoint), listing tails.
    downward_rev, downward_via = build_csr_with_payload(
        n,
        heads[down_mask],
        tails[down_mask],
        lens[down_mask],
        vias[down_mask],
    )
    stats = dict(stats)
    stats["upward_arcs"] = upward.m
    stats["downward_arcs"] = downward_rev.m
    return ContractionHierarchy(
        n=n,
        rank=rank,
        level=level,
        upward=upward,
        upward_via=upward_via,
        downward_rev=downward_rev,
        downward_via=downward_via,
        num_shortcuts=num_shortcuts,
        preprocessing_stats=stats,
    )


@dataclass
class ContractionHierarchy:
    """Preprocessed hierarchy over a graph with ``n`` vertices.

    Attributes
    ----------
    n:
        Vertex count (IDs shared with the input graph).
    rank:
        Contraction order position per vertex (0 = first contracted).
    level:
        PHAST level per vertex (0 = leaves of the hierarchy).
    upward:
        ``G↑`` as out-adjacency: arcs ``(v, w)`` of ``A ∪ A+`` with
        ``rank[v] < rank[w]``.
    upward_via:
        Per-arc shortcut middle vertex aligned with ``upward``'s arc
        arrays (-1 for original arcs).
    downward_rev:
        ``G↓`` stored *reversed*: ``downward_rev.neighbors(v)`` lists
        the tails ``u`` of downward arcs ``(u, v)`` (``rank[u] >
        rank[v]``), with matching lengths — the representation PHAST's
        linear sweep scans.
    downward_via:
        Shortcut middle vertices aligned with ``downward_rev``.
    num_shortcuts:
        How many shortcut arcs preprocessing added (before upward /
        downward dedup).
    preprocessing_stats:
        Free-form counters (witness searches run, time, etc.).
    elimination_parent:
        ``None``, or per vertex its parent in an elimination tree whose
        ancestors of every ``s`` include all that ``G↑`` reaches from
        ``s`` (``-1`` at a root; each parent ranks above its child).
        :meth:`CHTopology.instantiate
        <repro.ch.customize.CHTopology.instantiate>` sets it; the
        compiled batch of trees then searches by walking ``s``'s
        ancestors in rank order instead of running a heap.
    """

    n: int
    rank: np.ndarray
    level: np.ndarray
    upward: StaticGraph
    upward_via: np.ndarray
    downward_rev: StaticGraph
    downward_via: np.ndarray
    num_shortcuts: int
    preprocessing_stats: dict
    elimination_parent: np.ndarray | None = None

    @property
    def num_levels(self) -> int:
        """Number of distinct levels (max level + 1)."""
        return int(self.level.max()) + 1 if self.n else 0

    def level_histogram(self) -> np.ndarray:
        """Vertices per level — the data behind the paper's Figure 1."""
        return np.bincount(self.level, minlength=self.num_levels)

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError``.

        * ``rank`` is a permutation;
        * every upward arc goes rank-increasing, every (reversed)
          downward arc rank-decreasing;
        * levels strictly decrease along downward arcs (Lemma 4.1);
        * with an ``elimination_parent``, each parent ranks above its
          child and the head of every upward arc is an ancestor of its
          tail.
        """
        assert np.array_equal(np.sort(self.rank), np.arange(self.n))
        up_tails = self.upward.arc_tails()
        assert bool(
            np.all(self.rank[up_tails] < self.rank[self.upward.arc_head])
        ), "upward arc with non-increasing rank"
        down_heads = self.downward_rev.arc_tails()  # reversed storage
        down_tails = self.downward_rev.arc_head
        assert bool(
            np.all(self.rank[down_tails] > self.rank[down_heads])
        ), "downward arc with non-decreasing rank"
        assert bool(
            np.all(self.level[down_tails] > self.level[down_heads])
        ), "downward arc not strictly level-decreasing"
        parent = self.elimination_parent
        if parent is None:
            return
        child = np.flatnonzero(parent >= 0)
        assert parent.shape == (self.n,) and bool(
            np.all(self.rank[parent[child]] > self.rank[child])
        ), "elimination parent does not rank above its child"
        # Climb every arc's tail towards the root while it ranks below
        # the arc's head: the head must be on the way.
        at, head = up_tails, self.upward.arc_head
        below = self.rank[at] < self.rank[head]
        while below.any():
            at = np.where(below, parent[at], at)
            assert bool(np.all(at >= 0)), "upward arc head is no ancestor"
            below = self.rank[at] < self.rank[head]
        assert np.array_equal(at, head), "upward arc head is no ancestor"
