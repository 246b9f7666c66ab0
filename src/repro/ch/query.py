"""CH point-to-point queries and the target-independent upward search.

The bidirectional query (Section II-B) runs Dijkstra from ``s``
restricted to upward arcs and from ``t`` restricted to (reversed)
downward arcs; the meeting vertex ``u`` minimizing ``d_s(u) + d_t(u)``
is the maximum-rank vertex of the shortest path.  The *forward-only*
variant — run until the queue empties — is PHAST's first phase.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..graph.csr import INF, StaticGraph
from ..pq.binary_heap import BinaryHeap
from ..utils import native
from .hierarchy import ContractionHierarchy

__all__ = ["UpwardSearchSpace", "CHQueryResult", "upward_search", "ch_query"]

_INF = int(INF)


@dataclass
class UpwardSearchSpace:
    """Settled portion of a forward CH search from one source.

    Attributes
    ----------
    source:
        The search root.
    vertices:
        Settled vertex IDs, in settling order.
    dists:
        Matching labels; ``dists[i]`` is an *upper bound* on the true
        distance from ``source`` to ``vertices[i]`` (exact for the
        maximum-rank vertex of each shortest path, which is all PHAST
        needs).
    parents:
        Matching predecessor vertex in ``G↑`` (-1 for the source).
    """

    source: int
    vertices: np.ndarray
    dists: np.ndarray
    parents: np.ndarray

    @property
    def size(self) -> int:
        return int(self.vertices.size)

    def nbytes(self) -> int:
        """Bytes needed to ship this search space (GPHAST copies it)."""
        return self.vertices.nbytes + self.dists.nbytes


def _relax_from(
    graph: StaticGraph, source: int
) -> tuple[list[int], dict[int, int], dict[int, int]]:
    """Dijkstra over ``graph`` until the queue empties (dict-based).

    The upward search space is tiny (hundreds of vertices out of
    millions), so sparse dictionaries plus a lazy-deletion ``heapq``
    beat anything with per-query O(n) state — this runs thousands of
    times per second inside PHAST engines (the paper measures the
    forward search below 0.05 ms).  The CSR arrays are read through
    zero-copy ``memoryview``s, whose items are plain Python ints.
    """
    dist: dict[int, int] = {source: 0}
    parent: dict[int, int] = {source: -1}
    settled: list[int] = []
    heap: list[tuple[int, int]] = [(0, source)]
    first = memoryview(np.ascontiguousarray(graph.first))
    arc_head = memoryview(np.ascontiguousarray(graph.arc_head))
    arc_len = memoryview(np.ascontiguousarray(graph.arc_len))
    done: set[int] = set()
    while heap:
        dv, v = heapq.heappop(heap)
        if v in done:
            continue  # stale lazy-deletion copy
        done.add(v)
        settled.append(v)
        for i in range(first[v], first[v + 1]):
            w = arc_head[i]
            if w in done:
                continue
            nd = dv + arc_len[i]
            if nd < dist.get(w, _INF):
                dist[w] = nd
                parent[w] = v
                heapq.heappush(heap, (nd, w))
    return settled, dist, parent


def upward_search(ch: ContractionHierarchy, source: int) -> UpwardSearchSpace:
    """PHAST phase one: forward CH search with the loose stop criterion.

    Runs Dijkstra from ``source`` in ``G↑`` until the priority queue is
    empty and returns every settled vertex with its label.  The
    compiled search (:mod:`repro.utils.native`, one reused searcher per
    thread and ``G↑``) and the ``heapq`` loop settle the same vertices
    in the same order with the same parents.
    """
    if not 0 <= source < ch.n:
        raise ValueError("source out of range")
    searcher = native.thread_searcher(ch.upward)
    if searcher is not None:
        return UpwardSearchSpace(source, *searcher.space(source))
    settled, dist, parent = _relax_from(ch.upward, source)
    vertices = np.array(settled, dtype=np.int64)
    dists = np.array([dist[v] for v in settled], dtype=np.int64)
    parents = np.array([parent[v] for v in settled], dtype=np.int64)
    return UpwardSearchSpace(source, vertices, dists, parents)


@dataclass
class CHQueryResult:
    """Outcome of a bidirectional CH query.

    ``distance`` is :data:`~repro.graph.INF` when no path exists;
    ``meeting`` is the maximum-rank vertex of the shortest path.
    ``settled_forward``/``settled_backward`` count scanned vertices (the
    paper reports < 400 on Europe).
    """

    source: int
    target: int
    distance: int
    meeting: int
    settled_forward: int
    settled_backward: int
    path_gplus: list[int] | None = None
    path: list[int] | None = None


def _bidirectional(
    ch: ContractionHierarchy, s: int, t: int, *, stall: bool = False
) -> tuple[int, int, dict, dict, dict, dict, int, int]:
    up, down = ch.upward, ch.downward_rev
    dist_f: dict[int, int] = {s: 0}
    dist_b: dict[int, int] = {t: 0}
    par_f: dict[int, int] = {s: -1}
    par_b: dict[int, int] = {t: -1}
    heap_f = BinaryHeap(ch.n)
    heap_b = BinaryHeap(ch.n)
    heap_f.insert(s, 0)
    heap_b.insert(t, 0)
    done_f: set[int] = set()
    done_b: set[int] = set()
    mu = INF
    meeting = -1
    scans_f = scans_b = 0

    def scan(
        heap: BinaryHeap,
        graph: StaticGraph,
        stall_graph: StaticGraph,
        dist: dict[int, int],
        par: dict[int, int],
        done: set[int],
        other_dist: dict[int, int],
    ) -> int:
        nonlocal mu, meeting
        v, dv = heap.pop_min()
        done.add(v)
        if v in other_dist:
            total = dv + other_dist[v]
            if total < mu:
                mu, meeting = total, v
        if stall:
            # Stall-on-demand (Geisberger et al.): if some arc from the
            # *opposite* direction's graph proves v's label suboptimal
            # (a shorter path through a higher-ranked vertex exists),
            # v cannot lie on a shortest path — skip its relaxations.
            sf, sh, sl = (
                stall_graph.first,
                stall_graph.arc_head,
                stall_graph.arc_len,
            )
            for i in range(sf[v], sf[v + 1]):
                w = int(sh[i])
                dw = dist.get(w)
                if dw is not None and dw + int(sl[i]) < dv:
                    return 1
        first, arc_head, arc_len = graph.first, graph.arc_head, graph.arc_len
        for i in range(first[v], first[v + 1]):
            w = int(arc_head[i])
            if w in done:
                continue
            nd = dv + int(arc_len[i])
            if nd < dist.get(w, INF):
                if heap.contains(w):
                    heap.decrease_key(w, nd)
                else:
                    heap.insert(w, nd)
                dist[w] = nd
                par[w] = v
        return 1

    # Alternate directions; each stops once its minimum key reaches mu.
    while heap_f or heap_b:
        if heap_f:
            _, key = heap_f.peek_min()
            if key >= mu:
                heap_f.clear()
            else:
                scans_f += scan(heap_f, up, down, dist_f, par_f, done_f, dist_b)
        if heap_b:
            _, key = heap_b.peek_min()
            if key >= mu:
                heap_b.clear()
            else:
                scans_b += scan(heap_b, down, up, dist_b, par_b, done_b, dist_f)
    return int(mu), meeting, dist_f, dist_b, par_f, par_b, scans_f, scans_b


def _arc_info_up(ch: ContractionHierarchy, a: int, b: int) -> tuple[int, int]:
    """(length, via) of the upward arc ``a -> b``."""
    lo, hi = ch.upward.first[a], ch.upward.first[a + 1]
    heads = ch.upward.arc_head[lo:hi]
    idx = np.flatnonzero(heads == b)
    if idx.size == 0:
        raise KeyError(f"no upward arc {a} -> {b}")
    i = int(lo + idx[0])
    return int(ch.upward.arc_len[i]), int(ch.upward_via[i])


def _arc_info_down(ch: ContractionHierarchy, a: int, b: int) -> tuple[int, int]:
    """(length, via) of the downward arc ``a -> b`` (stored reversed)."""
    lo, hi = ch.downward_rev.first[b], ch.downward_rev.first[b + 1]
    tails = ch.downward_rev.arc_head[lo:hi]
    idx = np.flatnonzero(tails == a)
    if idx.size == 0:
        raise KeyError(f"no downward arc {a} -> {b}")
    i = int(lo + idx[0])
    return int(ch.downward_rev.arc_len[i]), int(ch.downward_via[i])


def unpack_arc(ch: ContractionHierarchy, a: int, b: int) -> list[int]:
    """Expand the ``G+`` arc ``a -> b`` into original-graph vertices.

    Returns the vertex sequence from ``a`` to ``b`` inclusive.  Runs in
    time proportional to the number of original arcs on the path
    (Section VII-A).
    """
    out = [a]
    # Work stack of (x, y) arcs still to expand, in path order.
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if ch.rank[x] < ch.rank[y]:
            _, via = _arc_info_up(ch, x, y)
        else:
            _, via = _arc_info_down(ch, x, y)
        if via < 0:
            out.append(y)
        else:
            # Expand (x, via) first: push (via, y) below it.
            stack.append((via, y))
            stack.append((x, via))
    return out


def ch_query(
    ch: ContractionHierarchy,
    s: int,
    t: int,
    *,
    with_path: bool = False,
    unpack: bool = False,
    stall: bool = False,
) -> CHQueryResult:
    """Bidirectional point-to-point CH query.

    Parameters
    ----------
    with_path:
        Reconstruct the ``G+`` path through the meeting vertex.
    unpack:
        Additionally expand shortcuts to the original-graph path
        (implies ``with_path``).
    stall:
        Enable stall-on-demand pruning: scanned vertices whose label is
        provably suboptimal (witnessed by an arc from the opposite
        search graph) do not relax their arcs.  Same distances, fewer
        scans on strongly hierarchical graphs.
    """
    if not (0 <= s < ch.n and 0 <= t < ch.n):
        raise ValueError("endpoint out of range")
    mu, meeting, dist_f, dist_b, par_f, par_b, scans_f, scans_b = _bidirectional(
        ch, s, t, stall=stall
    )
    result = CHQueryResult(
        source=s,
        target=t,
        distance=mu if mu < INF else INF,
        meeting=meeting,
        settled_forward=scans_f,
        settled_backward=scans_b,
    )
    if (with_path or unpack) and meeting >= 0:
        fwd = [meeting]
        while par_f[fwd[-1]] != -1:
            fwd.append(par_f[fwd[-1]])
        fwd.reverse()  # s .. meeting (upward arcs)
        bwd = [meeting]
        while par_b[bwd[-1]] != -1:
            bwd.append(par_b[bwd[-1]])
        # meeting .. t (downward arcs)
        result.path_gplus = fwd + bwd[1:]
        if unpack:
            path = [s]
            for a, b in zip(result.path_gplus, result.path_gplus[1:]):
                path.extend(unpack_arc(ch, a, b)[1:])
            result.path = path
    return result
