"""RPHAST: PHAST restricted to a target set (one-to-many queries).

PHAST always sweeps *all* vertices, which is wasteful when only
distances to a target set ``T`` are needed (travel-time matrices,
k-nearest-POI queries).  The restriction the authors developed in the
follow-up work ("Faster Batched Shortest Paths in Road Networks",
Delling, Goldberg & Werneck) — and which the PHAST paper's one-to-all
framing invites — keeps only the part of the downward graph that can
reach ``T``:

* **selection** (target-dependent, source-independent): collect every
  vertex that reaches some target through downward arcs, by a reverse
  traversal over ``G↓`` from ``T``; freeze PHAST's own
  :class:`~repro.core.sweep.SweepStructure` over the selected vertices.
* **query** (per source): the usual upward CH search, then the linear
  sweep over the restricted structure only.

Correctness needs no new argument: for any ``t ∈ T``, the downward
portion of the shortest ``s → t`` path lies entirely inside the
selected set (each of its vertices reaches ``t`` through downward
arcs), so the restricted sweep relaxes every arc PHAST would have used
for ``t``.

For ``|T| ≪ n`` the selected set is a small cone and one-to-many
queries run orders of magnitude faster than a full sweep.

Matrix workloads layer two more reuse levels on top:

* multi-source *lane* sweeps (:meth:`RPhastEngine.sweep_lanes`) relax
  each restricted arc once for a whole group of sources, the same
  trick ``PhastEngine.trees`` uses on the full sweep;
* a :class:`SelectionCache` keeps frozen selections alive across
  requests keyed by target-set hash, so repeated queries against the
  same depot/POI sets pay selection once.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Mapping

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from ..utils.segments import gather_ranges
from .sweep import LevelSweep, SweepStructure

__all__ = ["RPhastEngine", "SelectionCache"]


class RPhastEngine:
    """One-to-many engine over a fixed target set.

    Parameters
    ----------
    ch:
        Preprocessed hierarchy.
    targets:
        Target vertex IDs; duplicates are collapsed.
    search_cache:
        When positive, LRU-cache the per-source upward searches (in
        restricted-position form) for up to this many distinct
        sources — the same pattern as ``PhastEngine(search_cache=…)``.
    sweep:
        A prebuilt restricted :class:`~repro.core.sweep.SweepStructure`
        for ``targets`` (by default the selection runs here); see
        :meth:`from_arrays`.

    Notes
    -----
    Selection cost is proportional to the restricted subgraph, and is
    paid once per target set; queries reuse it for any number of
    sources (the asymmetry mirrors PHAST's own preprocessing/query
    split, one level down).

    The restricted structure is PHAST's own
    :class:`~repro.core.sweep.SweepStructure` over the selected
    vertices, and queries run the shared
    :class:`~repro.core.sweep.LevelSweep` kernel over it.  Engines keep
    its reusable sweep buffers, so a single instance is not safe for
    concurrent queries from multiple threads.
    """

    #: Default lane width of :meth:`many_to_many`; matches the default
    #: ``ServerConfig.batch_max``, the lanes a server sweeps per group.
    DEFAULT_LANES = 16

    def __init__(
        self,
        ch: ContractionHierarchy,
        targets,
        *,
        search_cache: int = 0,
        sweep: SweepStructure | None = None,
    ) -> None:
        self.ch = ch
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        if targets.size == 0:
            raise ValueError("target set must be non-empty")
        if targets.min() < 0 or targets.max() >= ch.n:
            raise ValueError("target out of range")
        self.targets = targets
        if sweep is None:
            sweep = SweepStructure(ch, _select(ch, targets))
        self.sweep = sweep
        self.target_pos = sweep.pos_of[targets]
        self.kernel = LevelSweep(ch, sweep, search_cache=search_cache)

    @property
    def size(self) -> int:
        """Selected vertices (sweep positions of the restricted sweep)."""
        return self.sweep.n

    @property
    def vertex_at(self) -> np.ndarray:
        """Original ID of each selected vertex, in sweep order."""
        return self.sweep.vertex_at

    @property
    def num_arcs(self) -> int:
        """Downward arcs the restricted sweep scans."""
        return self.sweep.num_arcs

    # ------------------------------------------------------------------
    # Sharing a selection across processes

    def selection_arrays(self) -> dict[str, np.ndarray]:
        """The arrays that define this selection, keyed for publication.

        The restricted structure's ``sw:`` arrays — the same keys a
        ``PhastPool`` hierarchy generation publishes — plus
        ``targets``.  ``pos_of`` (full ``n``) is rebuilt on the far
        side, so a published selection costs O(selected), not O(n).
        Feed the result to ``PhastPool.publish_arrays`` and rebuild with
        :meth:`from_arrays`.
        """
        return {**self.sweep.arrays(), "targets": self.targets}

    @classmethod
    def from_arrays(
        cls,
        ch: ContractionHierarchy,
        views: Mapping[str, np.ndarray],
        *,
        search_cache: int = 0,
    ) -> "RPhastEngine":
        """Rebuild an engine from :meth:`selection_arrays` output.

        ``ch`` only needs ``n`` and the upward graph: pool chunks pass
        the hierarchy generation's publication, which carries exactly
        those.  The downward traversal is not repeated.
        """
        return cls(ch, views["targets"], search_cache=search_cache,
                   sweep=SweepStructure.from_arrays(views, ch.n))

    def freeze(self) -> "RPhastEngine":
        """Mark the selection arrays read-only (cache-safety) and return self."""
        for arr in (*self.selection_arrays().values(), self.sweep.pos_of,
                    self.target_pos):
            if arr.flags.owndata:
                arr.flags.writeable = False
        return self

    # ------------------------------------------------------------------
    # Queries

    def distances(self, source: int, *, all_selected: bool = False) -> np.ndarray:
        """Distances from ``source`` to the targets (one restricted sweep).

        Returns an array aligned with the (deduplicated, sorted)
        ``self.targets``; with ``all_selected=True``, labels for every
        selected vertex instead, aligned with ``self.vertex_at``.
        """
        dist = self.kernel.run_lanes([source])[:, 0]
        if all_selected:
            return dist.copy()
        return dist[self.target_pos]

    def sweep_lanes(self, sources) -> np.ndarray:
        """Distances for a lane group in ONE restricted sweep.

        Same multi-lane sweep as ``PhastEngine.trees``.  Returns
        ``(len(sources), len(targets))``.
        """
        dist = self.kernel.run_lanes(np.asarray(sources, dtype=np.int64))
        return np.ascontiguousarray(dist[self.target_pos].T)

    def many_to_many(self, sources, *, lanes: int | None = None) -> np.ndarray:
        """Distance matrix ``(len(sources), len(targets))``.

        The batched building block of travel-time-matrix services: one
        restricted *lane-group* sweep per ``lanes`` sources over the
        shared selection (instead of one sweep per source).
        """
        if lanes is None:
            lanes = self.DEFAULT_LANES
        if lanes < 1:
            raise ValueError("lanes must be positive")
        sources = np.asarray(sources, dtype=np.int64)
        out = np.empty((sources.size, self.targets.size), dtype=np.int64)
        for i in range(0, int(sources.size), lanes):
            group = sources[i : i + lanes]
            out[i : i + group.size] = self.sweep_lanes(group)
        return out

    def cache_info(self) -> dict[str, int]:
        """Upward ``search_cache`` occupancy and hit counters."""
        return self.kernel.cache_info()


def _select(ch: ContractionHierarchy, targets: np.ndarray) -> np.ndarray:
    """Every vertex that reaches a target through downward arcs (sorted).

    A reverse traversal over ``G↓`` from the targets: the stored
    adjacency lists exactly the higher-ranked tails of each vertex's
    incoming downward arcs, i.e. its "parents" here.  Frontier at a
    time: one gather over the CSR ranges of the whole frontier per
    round instead of a Python stack.
    """
    down = ch.downward_rev
    in_set = np.zeros(ch.n, dtype=bool)
    in_set[targets] = True
    frontier = targets
    while frontier.size:
        arc_idx, _ = gather_ranges(down.first, frontier)
        parents = down.arc_head[arc_idx]
        frontier = np.unique(parents[~in_set[parents]])
        in_set[frontier] = True
    return np.flatnonzero(in_set)


class SelectionCache:
    """LRU cache of frozen :class:`RPhastEngine` selections.

    Keys are target-set hashes (:meth:`key_of`), values are whatever
    the caller stores; :meth:`engine` stores frozen engines.

    Not thread-safe by itself; the server touches it only on its one
    exclusive thread, where matrices and metric swaps run one at a
    time.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key_of(targets) -> str:
        """Order-insensitive content hash of a target set."""
        t = np.unique(np.asarray(targets, dtype=np.int64))
        return hashlib.blake2b(t.tobytes(), digest_size=16).hexdigest()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """The cached value, bumped to most-recent, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def engine(self, ch: ContractionHierarchy, targets, **kwargs) -> RPhastEngine:
        """Cached-or-built engine for ``targets``; ``kwargs`` go to
        :class:`RPhastEngine` on a miss."""
        key = self.key_of(targets)
        entry = self.get(key)
        if entry is None:
            entry = RPhastEngine(ch, targets, **kwargs).freeze()
            self.put(key, entry)
        return entry

    def clear(self) -> None:
        """Evict everything."""
        self.evictions += len(self._entries)
        self._entries.clear()

    def snapshot(self) -> dict[str, int]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
