"""The paper's one-vertex-at-a-time CH contractor: the reference.

Implements Geisberger et al.'s CH preprocessing with the paper's tuned
priority function (Section VIII-A):

    priority(u) = 2·ED(u) + CN(u) + H(u) + 5·L(u)

where ``ED`` is the edge difference (shortcuts added minus arcs
removed), ``CN`` the number of already-contracted neighbours, ``H`` the
number of original arcs represented by the added shortcuts (each
incident arc contributing at most 3), and ``L`` the level the vertex
would receive.  Vertex selection uses lazy updates: the minimum is
re-evaluated on pop and re-queued if it is no longer minimal, and
neighbour priorities are refreshed after every contraction.

Witness searches are hop-limited on a schedule keyed to the average
degree of the *uncontracted* part of the graph: 5 hops below degree 5,
10 hops below degree 10, unlimited beyond (Section VIII-A).

Every caller builds hierarchies with
:func:`~repro.ch.batched.contract_graph`, the batched round pipeline
that evaluates the same priority function.  :func:`contract_graph_lazy`
is the paper reference the pipeline is tested against and the engine
of the CH ablation benchmarks.  :class:`CHParams` holds the knobs both
contractors share.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from ..graph.csr import StaticGraph
from .hierarchy import ContractionHierarchy, assemble_hierarchy
from .witness import witness_search

__all__ = ["CHParams", "contract_graph_lazy"]


@dataclass(frozen=True)
class CHParams:
    """Preprocessing knobs shared by both contractors; defaults follow
    the paper.

    Attributes
    ----------
    ed_weight, cn_weight, h_weight, level_weight:
        Coefficients of the priority terms.
    h_arc_cap:
        Cap on one incident arc's contribution to ``H`` (paper: 3).
    hop_schedule:
        Sequence of ``(avg_degree_bound, hop_limit)`` pairs; the first
        entry whose bound is at least the current average degree gives
        the hop limit.  ``None`` bound = always; ``None`` limit =
        unlimited search.
    witness_max_settled:
        Safety valve on witness-search size (``None`` = faithful,
        unbounded).
    rebuild_every:
        Round pipeline only: recompact the dynamic adjacency for
        locality every this many rounds.
    """

    ed_weight: int = 2
    cn_weight: int = 1
    h_weight: int = 1
    level_weight: int = 5
    h_arc_cap: int = 3
    hop_schedule: tuple[tuple[float | None, int | None], ...] = (
        (5.0, 5),
        (10.0, 10),
        (None, None),
    )
    witness_max_settled: int | None = None
    rebuild_every: int = 4


@dataclass
class _Shortcut:
    tail: int
    head: int
    length: int
    via: int
    # hop counts of the two component arcs, for the H term
    hops_in: int = 1
    hops_out: int = 1


@dataclass
class _Stats:
    witness_searches: int = 0
    shortcuts_added: int = 0
    priority_evaluations: int = 0
    lazy_requeues: int = 0
    seconds: float = 0.0


class _Contractor:
    """Mutable state of one preprocessing run."""

    def __init__(self, graph: StaticGraph, params: CHParams) -> None:
        self.params = params
        self.n = graph.n
        # Dynamic adjacency: maps neighbour -> (length, via, hops).
        # Parallel arcs are collapsed to the shortest immediately; that
        # is safe because only shortest paths matter from here on.
        self.fwd: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in range(self.n)
        ]
        self.bwd: list[dict[int, tuple[int, int, int]]] = [
            {} for _ in range(self.n)
        ]
        tails = graph.arc_tails()
        for t, h, l in zip(tails, graph.arc_head, graph.arc_len):
            t, h, l = int(t), int(h), int(l)
            if t == h:
                continue  # self loops never matter for shortest paths
            if h not in self.fwd[t] or l < self.fwd[t][h][0]:
                self.fwd[t][h] = (l, -1, 1)
                self.bwd[h][t] = (l, -1, 1)
        self.live_arcs = sum(len(d) for d in self.fwd)
        self.remaining = self.n
        self.contracted = np.zeros(self.n, dtype=bool)
        self.level = np.zeros(self.n, dtype=np.int64)
        self.cn = np.zeros(self.n, dtype=np.int64)  # contracted neighbours
        self.rank = np.full(self.n, -1, dtype=np.int64)
        self.shortcuts: list[_Shortcut] = []
        self.stats = _Stats()
        # priority() caches its simulation so contract() can reuse it;
        # entries are invalidated whenever a neighbour is contracted.
        self._sc_cache: dict[int, list[_Shortcut]] = {}

    # -- hop-limit schedule ----------------------------------------------

    def _hop_limit(self) -> int | None:
        if self.remaining == 0:
            return None
        avg_degree = self.live_arcs / self.remaining
        for bound, limit in self.params.hop_schedule:
            if bound is None or avg_degree <= bound:
                return limit
        return None

    # -- simulation ---------------------------------------------------------

    def _needed_shortcuts(self, v: int) -> list[_Shortcut]:
        """Shortcuts required if ``v`` were contracted now."""
        hop_limit = self._hop_limit()
        out = []
        ins = [(u, data) for u, data in self.bwd[v].items()]
        outs = [(w, data) for w, data in self.fwd[v].items()]
        for u, (lu, _, hu) in ins:
            targets = {
                w: lu + lw for w, (lw, _, _) in outs if w != u
            }
            if not targets:
                continue
            self.stats.witness_searches += 1
            witness = witness_search(
                self.fwd,
                u,
                v,
                targets,
                hop_limit,
                self.params.witness_max_settled,
            )
            for w, (lw, _, hw) in outs:
                if w == u:
                    continue
                cand = lu + lw
                if witness.get(w, cand + 1) <= cand:
                    continue  # a witness path makes the shortcut redundant
                out.append(
                    _Shortcut(u, w, cand, v, hops_in=hu, hops_out=hw)
                )
        return out

    def priority(self, v: int) -> int:
        """The paper's priority term for ``v`` (lower = contract sooner)."""
        self.stats.priority_evaluations += 1
        shortcuts = self._needed_shortcuts(v)
        self._sc_cache[v] = shortcuts
        removed = len(self.fwd[v]) + len(self.bwd[v])
        ed = len(shortcuts) - removed
        cap = self.params.h_arc_cap
        h = sum(min(s.hops_in, cap) + min(s.hops_out, cap) for s in shortcuts)
        p = self.params
        return (
            p.ed_weight * ed
            + p.cn_weight * int(self.cn[v])
            + p.h_weight * h
            + p.level_weight * int(self.level[v])
        )

    # -- contraction ---------------------------------------------------------

    def contract(self, v: int, position: int) -> list[int]:
        """Remove ``v``, add its shortcuts; returns affected neighbours."""
        shortcuts = self._sc_cache.pop(v, None)
        if shortcuts is None:
            shortcuts = self._needed_shortcuts(v)
        neighbours = set(self.fwd[v]) | set(self.bwd[v])
        self._insert_shortcuts(shortcuts)
        # Detach v.
        for u in self.bwd[v]:
            del self.fwd[u][v]
        for w in self.fwd[v]:
            del self.bwd[w][v]
        self.live_arcs -= len(self.fwd[v]) + len(self.bwd[v])
        self.fwd[v].clear()
        self.bwd[v].clear()
        self.contracted[v] = True
        self.rank[v] = position
        self.remaining -= 1
        for x in neighbours:
            self.cn[x] += 1
            if self.level[x] < self.level[v] + 1:
                self.level[x] = self.level[v] + 1
            self._sc_cache.pop(x, None)  # topology around x changed
        return [x for x in neighbours if not self.contracted[x]]

    def _insert_shortcuts(self, shortcuts: list[_Shortcut]) -> None:
        """Add shortcuts to both the dynamic graph and the output list."""
        for s in shortcuts:
            existing = self.fwd[s.tail].get(s.head)
            total_hops = s.hops_in + s.hops_out
            if existing is None or s.length < existing[0]:
                if existing is None:
                    self.live_arcs += 1
                self.fwd[s.tail][s.head] = (s.length, s.via, total_hops)
                self.bwd[s.head][s.tail] = (s.length, s.via, total_hops)
            self.shortcuts.append(s)
            self.stats.shortcuts_added += 1


def contract_graph_lazy(
    graph: StaticGraph,
    params: CHParams | None = None,
    *,
    neighbor_updates: bool = True,
) -> ContractionHierarchy:
    """Run the paper's heap-driven CH preprocessing on ``graph``.

    Returns a :class:`~repro.ch.hierarchy.ContractionHierarchy` whose
    upward and downward graphs cover all original arcs plus shortcuts.
    Every vertex is contracted, so the hierarchy is total.

    ``neighbor_updates`` refreshes neighbour priorities after every
    contraction (the paper's scheme, default).  ``False`` relies purely
    on the on-pop lazy re-check: ~3x fewer priority evaluations at the
    cost of ~10% more shortcuts.
    """
    params = params or CHParams()
    start = time.perf_counter()
    state = _Contractor(graph, params)
    n = graph.n

    heap: list[tuple[int, int]] = [(state.priority(v), v) for v in range(n)]
    heapq.heapify(heap)

    position = 0
    while heap:
        prio, v = heapq.heappop(heap)
        if state.contracted[v]:
            continue
        current = state.priority(v)
        if heap and current > heap[0][0]:
            # No longer minimal — lazy requeue with the fresh key.
            state.stats.lazy_requeues += 1
            heapq.heappush(heap, (current, v))
            continue
        neighbours = state.contract(v, position)
        position += 1
        # The paper recomputes neighbour priorities right after each
        # contraction (in parallel there; sequentially here).  Without
        # it, stale keys are caught by the on-pop re-check above.
        if neighbor_updates:
            for x in neighbours:
                heapq.heappush(heap, (state.priority(x), x))

    state.stats.seconds = time.perf_counter() - start
    return _assemble(graph, state)


def _assemble(graph: StaticGraph, state: _Contractor) -> ContractionHierarchy:
    """Hand the run's outputs to the shared hierarchy assembly."""
    stats = {
        "strategy": "lazy",
        "witness_searches": state.stats.witness_searches,
        "shortcuts_added": state.stats.shortcuts_added,
        "priority_evaluations": state.stats.priority_evaluations,
        "lazy_requeues": state.stats.lazy_requeues,
        "seconds": state.stats.seconds,
    }
    return assemble_hierarchy(
        graph,
        state.rank,
        state.level,
        np.array([s.tail for s in state.shortcuts], dtype=np.int64),
        np.array([s.head for s in state.shortcuts], dtype=np.int64),
        np.array([s.length for s in state.shortcuts], dtype=np.int64),
        np.array([s.via for s in state.shortcuts], dtype=np.int64),
        num_shortcuts=len(state.shortcuts),
        stats=stats,
    )
