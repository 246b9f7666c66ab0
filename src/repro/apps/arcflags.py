"""Arc flags: preprocessing and accelerated point-to-point queries.

An arc ``a`` carries one Boolean per cell ``C``: true iff ``a`` starts
some shortest path into ``C`` (Section VII-B-b).  Queries run Dijkstra
but skip arcs whose flag for the target's cell is off, which prunes the
search to a thin corridor.

Preprocessing is the expensive part — one *reverse* shortest path tree
per boundary vertex — and is exactly the workload PHAST accelerates:
the paper reduces ~10.5 hours (Dijkstra, 4 cores) to under 3 minutes
(GPHAST).  Both backends are provided: ``method="dijkstra"`` grows each
tree with the baseline, ``method="phast"`` uses a PHAST engine built on
the reverse graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ch import CHParams, contract_graph
from ..core.pool import PhastPool, TreeReducer
from ..graph.csr import INF, StaticGraph
from ..pq.binary_heap import BinaryHeap
from ..sssp.dijkstra import dijkstra
from .partition import Partition, boundary_vertices

__all__ = [
    "ArcFlags",
    "ArcFlagReducer",
    "arcflag_pool",
    "compute_arc_flags",
    "arcflags_query",
    "BidirectionalArcFlags",
    "compute_bidirectional_arc_flags",
    "arcflags_query_bidirectional",
]


@dataclass
class ArcFlags:
    """Arc-flag table over a partitioned graph.

    Attributes
    ----------
    graph:
        The graph the flags refer to (arc indices match its CSR order).
    partition:
        The vertex partition.
    flags:
        Boolean array of shape ``(m, num_cells)``; ``flags[a, C]`` says
        arc ``a`` may start a shortest path into cell ``C``.
    trees_grown:
        Number of reverse trees preprocessing built (= boundary count).
    """

    graph: StaticGraph
    partition: Partition
    flags: np.ndarray
    trees_grown: int

    @property
    def bits_set_fraction(self) -> float:
        """Fraction of true flags (quality indicator; lower = better)."""
        return float(self.flags.mean())


def _flag_from_reverse_tree(
    graph: StaticGraph,
    tails: np.ndarray,
    dist_to_b: np.ndarray,
    flags: np.ndarray,
    cell_idx: int,
) -> None:
    """Set flags for arcs on shortest paths toward one boundary vertex.

    ``dist_to_b[u]`` is the distance from ``u`` to the boundary vertex;
    arc ``(u, v)`` lies on a shortest ``u -> b`` path iff
    ``dist_to_b[u] == l(u, v) + dist_to_b[v]``.
    """
    heads = graph.arc_head
    finite = dist_to_b[tails] < INF
    on_sp = finite & (dist_to_b[tails] == graph.arc_len + dist_to_b[heads])
    flags[on_sp, cell_idx] = True


class ArcFlagReducer(TreeReducer):
    """OR per-boundary-vertex flag contributions inside the workers.

    Each reverse tree rooted at boundary vertex ``b`` marks the arcs on
    shortest paths toward ``b`` in the column of ``b``'s cell.  The
    per-worker state is a full ``(m, num_cells)`` Boolean table — the
    only thing shipped back per worker — and the parent ORs the tables,
    so an all-boundary run never pickles a single distance array.

    Expects the pool to publish the forward graph as ``"graph"`` and
    the partition's cell assignment as ``"cell"``.
    """

    def __init__(self, num_cells: int) -> None:
        self.num_cells = int(num_cells)

    def make_state(self, ctx):
        return np.zeros((ctx.graph("graph").m, self.num_cells), dtype=bool)

    def fold(self, ctx, state, index, source, dist):
        graph = ctx.graph("graph")
        cell = ctx.array("cell")
        _flag_from_reverse_tree(
            graph, graph.arc_tails(), dist, state, int(cell[source])
        )
        return state

    def merge(self, states):
        out = states[0]
        for s in states[1:]:
            out |= s
        return out


def arcflag_pool(
    reverse_ch,
    graph: StaticGraph,
    partition: Partition,
    **pool_kwargs,
) -> PhastPool:
    """A pool over the reverse hierarchy, provisioned for arc flags.

    Publishes the forward graph and the partition's cell array so
    :class:`ArcFlagReducer` can run in the workers; pass the result to
    :func:`compute_arc_flags` via ``pool=`` to reuse it across calls.
    """
    return PhastPool(
        reverse_ch,
        graphs={"graph": graph},
        arrays={"cell": np.asarray(partition.cell, dtype=np.int64)},
        **pool_kwargs,
    )


def compute_arc_flags(
    graph: StaticGraph,
    partition: Partition,
    *,
    method: str = "phast",
    reverse_ch=None,
    ch_params: CHParams | None = None,
    num_workers: int = 1,
    pool: PhastPool | None = None,
) -> ArcFlags:
    """Build the arc-flag table.

    Parameters
    ----------
    graph:
        Input graph.
    partition:
        Vertex partition (see :func:`repro.apps.partition_graph`).
    method:
        ``"phast"`` (reverse trees via a PHAST engine over the reverse
        graph) or ``"dijkstra"`` (baseline).
    reverse_ch:
        Optional pre-built hierarchy of ``graph.reverse()``; built on
        demand otherwise.
    ch_params:
        Passed to CH preprocessing when the hierarchy is built here.
    num_workers:
        Worker processes for an ephemeral pool (ignored when ``pool``
        is passed).
    pool:
        A persistent pool from :func:`arcflag_pool` to reuse across
        calls (it must publish ``graph`` and ``cell``).
    """
    m = graph.m
    cell = partition.cell
    flags = np.zeros((m, partition.num_cells), dtype=bool)
    tails = graph.arc_tails()

    # Intra-cell flags: an arc always carries the flag of its own
    # head's cell (paths that stay inside the cell).
    flags[np.arange(m), cell[graph.arc_head]] = True

    boundary = boundary_vertices(graph, partition)
    if method == "phast":
        if pool is None and reverse_ch is None:
            reverse_ch = contract_graph(graph.reverse(), ch_params)
        owned = pool is None
        if owned:
            pool = arcflag_pool(
                reverse_ch, graph, partition, num_workers=num_workers
            )
        try:
            if boundary.size:
                flags |= pool.reduce(
                    boundary, ArcFlagReducer(partition.num_cells)
                )
        finally:
            if owned:
                pool.close()
    elif method == "dijkstra":
        reverse = graph.reverse()
        for b in boundary:
            b = int(b)
            dist_to_b = dijkstra(reverse, b, with_parents=False).dist
            _flag_from_reverse_tree(
                graph, tails, dist_to_b, flags, int(cell[b])
            )
    else:
        raise ValueError(f"unknown method {method!r}")
    return ArcFlags(
        graph=graph,
        partition=partition,
        flags=flags,
        trees_grown=int(boundary.size),
    )


from dataclasses import dataclass as _dataclass


@_dataclass
class BidirectionalArcFlags:
    """Forward and backward flag tables (Section VII-B-b: "this
    approach can easily be made bidirectional").

    ``forward`` flags prune arcs that cannot start a shortest path
    *into* the target's cell; ``backward`` holds the same table built
    on the reverse graph, pruning (reversed) arcs that cannot start a
    reverse shortest path into the *source's* cell.
    """

    forward: ArcFlags
    backward: ArcFlags  # over graph.reverse(), same partition

    @property
    def partition(self) -> Partition:
        return self.forward.partition


def compute_bidirectional_arc_flags(
    graph: StaticGraph,
    partition: Partition,
    *,
    method: str = "phast",
    forward_ch=None,
    reverse_ch=None,
    ch_params: CHParams | None = None,
) -> BidirectionalArcFlags:
    """Build both flag directions.

    Forward flags need reverse shortest path trees (a hierarchy of the
    reverse graph); backward flags are just forward flags of the
    reverse graph, which need trees in the original direction — so the
    two hierarchies are each used once, crosswise.
    """
    reverse = graph.reverse()
    if method == "phast":
        if reverse_ch is None:
            reverse_ch = contract_graph(reverse, ch_params)
        if forward_ch is None:
            forward_ch = contract_graph(graph, ch_params)
    forward = compute_arc_flags(
        graph, partition, method=method, reverse_ch=reverse_ch
    )
    backward = compute_arc_flags(
        reverse, partition, method=method, reverse_ch=forward_ch
    )
    return BidirectionalArcFlags(forward=forward, backward=backward)


def arcflags_query_bidirectional(
    baf: BidirectionalArcFlags, s: int, t: int
) -> tuple[int, int]:
    """Bidirectional arc-flag Dijkstra.

    Both searches prune by their direction's flags; the usual
    bidirectional stopping criterion applies (stop once the sum of the
    two queue minima reaches the best meeting value).  Returns
    ``(distance, vertices_scanned)``.
    """
    graph = baf.forward.graph
    reverse = baf.backward.graph
    n = graph.n
    allowed_f = baf.forward.flags[:, int(baf.partition.cell[t])]
    allowed_b = baf.backward.flags[:, int(baf.partition.cell[s])]

    dist_f = np.full(n, INF, dtype=np.int64)
    dist_b = np.full(n, INF, dtype=np.int64)
    done_f = np.zeros(n, dtype=bool)
    done_b = np.zeros(n, dtype=bool)
    heap_f = BinaryHeap(n)
    heap_b = BinaryHeap(n)
    dist_f[s] = 0
    dist_b[t] = 0
    heap_f.insert(s, 0)
    heap_b.insert(t, 0)
    mu = INF
    scanned = 0

    def scan_one(heap, graph_, allowed, dist, done, other_dist):
        nonlocal mu, scanned
        v, dv = heap.pop_min()
        done[v] = True
        scanned += 1
        if other_dist[v] < INF and dv + other_dist[v] < mu:
            mu = dv + other_dist[v]
        first, arc_head, arc_len = graph_.first, graph_.arc_head, graph_.arc_len
        for i in range(first[v], first[v + 1]):
            if not allowed[i]:
                continue
            w = int(arc_head[i])
            if done[w]:
                continue
            nd = dv + int(arc_len[i])
            if nd < dist[w]:
                if heap.contains(w):
                    heap.decrease_key(w, nd)
                else:
                    heap.insert(w, nd)
                dist[w] = nd
                if other_dist[w] < INF and nd + other_dist[w] < mu:
                    mu = nd + other_dist[w]

    inf = int(INF)
    while heap_f or heap_b:
        top_f = int(heap_f.peek_min()[1]) if heap_f else inf
        top_b = int(heap_b.peek_min()[1]) if heap_b else inf
        # Stop when no unscanned label can improve the meeting value.
        if min(top_f, top_b) >= mu or top_f + top_b >= mu:
            break
        if top_f <= top_b:
            scan_one(heap_f, graph, allowed_f, dist_f, done_f, dist_b)
        else:
            scan_one(heap_b, reverse, allowed_b, dist_b, done_b, dist_f)
    return (int(mu) if mu < INF else INF), scanned


def arcflags_query(
    af: ArcFlags, s: int, t: int
) -> tuple[int, int]:
    """Point-to-point distance using arc-flag pruning.

    Returns ``(distance, vertices_scanned)``; the scan count is the
    quantity arc flags shrink by orders of magnitude relative to plain
    Dijkstra.
    """
    graph = af.graph
    n = graph.n
    target_cell = int(af.partition.cell[t])
    allowed = af.flags[:, target_cell]

    dist = np.full(n, INF, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    heap = BinaryHeap(n)
    dist[s] = 0
    heap.insert(s, 0)
    scanned = 0
    first, arc_head, arc_len = graph.first, graph.arc_head, graph.arc_len
    while heap:
        v, dv = heap.pop_min()
        done[v] = True
        scanned += 1
        if v == t:
            break
        for i in range(first[v], first[v + 1]):
            if not allowed[i]:
                continue
            w = int(arc_head[i])
            if done[w]:
                continue
            nd = dv + int(arc_len[i])
            if nd < dist[w]:
                if heap.contains(w):
                    heap.decrease_key(w, nd)
                else:
                    heap.insert(w, nd)
                dist[w] = nd
    return int(dist[t]), scanned
