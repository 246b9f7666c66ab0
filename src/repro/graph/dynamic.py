"""Dynamic adjacency for batched graph surgery.

CH preprocessing repeatedly removes vertices and inserts shortcut arcs.
The paper's reference contractor keeps a dict-of-dicts for this; the
round pipeline (:mod:`repro.ch.batched`) needs the same operations
as *bulk* array transforms, so witness searches can gather thousands of
adjacency rows with NumPy instead of one Python dict lookup at a time.

:class:`DynamicAdjacency` stores the live graph as

* a **base** CSR snapshot (forward and reverse), rebuilt for locality
  every few rounds — the cache-aware compaction of Luxen &
  Schieferdecker's parallel CH preprocessing; and
* a small **overlay** CSR holding the arcs inserted since the last
  rebuild.

Removals are lazy: retired (contracted) vertices are masked out at
gather time, and their arcs are physically dropped at the next rebuild.
Parallel arcs may coexist temporarily (a shortcut may undercut an
existing arc); every gather therefore deduplicates ``(owner,
neighbour)`` pairs keeping the minimum length, and rebuilds dedup the
stored arrays the same way.
"""

from __future__ import annotations

import time

import numpy as np

from ..utils.segments import gather_ranges
from .csr import StaticGraph

__all__ = ["DynamicAdjacency"]


def _build_half(
    n: int, tails: np.ndarray, heads: np.ndarray, lens: np.ndarray, hops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(first, heads, lens, hops)`` grouped by tail."""
    order = np.argsort(tails, kind="stable")
    first = np.zeros(n + 1, dtype=np.int64)
    np.add.at(first, tails + 1, 1)
    np.cumsum(first, out=first)
    return first, heads[order], lens[order], hops[order]


def _dedup_min(
    tails: np.ndarray, heads: np.ndarray, lens: np.ndarray, hops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse parallel arcs to the shortest (ties: fewest hops)."""
    if not tails.size:
        return tails, heads, lens, hops
    order = np.lexsort((hops, lens, heads, tails))
    tails, heads, lens, hops = (
        tails[order], heads[order], lens[order], hops[order]
    )
    keep = np.empty(tails.size, dtype=bool)
    keep[0] = True
    keep[1:] = (tails[1:] != tails[:-1]) | (heads[1:] != heads[:-1])
    return tails[keep], heads[keep], lens[keep], hops[keep]


class _Half:
    """One direction of adjacency: base CSR + overlay CSR."""

    __slots__ = ("n", "first", "heads", "lens", "hops",
                 "o_first", "o_heads", "o_lens", "o_hops")

    def __init__(self, n: int, tails, heads, lens, hops) -> None:
        self.n = n
        self.first, self.heads, self.lens, self.hops = _build_half(
            n, tails, heads, lens, hops
        )
        self._clear_overlay()

    @classmethod
    def from_csr(cls, n: int, first, heads, lens, hops) -> "_Half":
        """Wrap already-grouped CSR arrays without copying or sorting."""
        self = cls.__new__(cls)
        self.n = n
        self.first, self.heads, self.lens, self.hops = first, heads, lens, hops
        self._clear_overlay()
        return self

    def _clear_overlay(self) -> None:
        self.o_first = np.zeros(self.n + 1, dtype=np.int64)
        self.o_heads = np.zeros(0, dtype=np.int64)
        self.o_lens = np.zeros(0, dtype=np.int64)
        self.o_hops = np.zeros(0, dtype=np.int64)

    def set_overlay(self, tails, heads, lens, hops) -> None:
        self.o_first, self.o_heads, self.o_lens, self.o_hops = _build_half(
            self.n, tails, heads, lens, hops
        )

    def gather(
        self, verts: np.ndarray, retired: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Arcs of ``verts`` with live far endpoints.

        Returns ``(owner, other, length, hops)`` where ``owner`` indexes
        into ``verts``.  Parallel arcs are *not* deduplicated here.
        """
        idx_b, own_b = gather_ranges(self.first, verts)
        idx_o, own_o = gather_ranges(self.o_first, verts)
        owner = np.concatenate([own_b, own_o])
        other = np.concatenate([self.heads[idx_b], self.o_heads[idx_o]])
        length = np.concatenate([self.lens[idx_b], self.o_lens[idx_o]])
        hops = np.concatenate([self.hops[idx_b], self.o_hops[idx_o]])
        live = ~retired[other]
        return owner[live], other[live], length[live], hops[live]

    def base_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every base arc as ``(tail, head, length, hops)`` (may
        include retired endpoints and parallels; overlay excluded)."""
        tails = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.first)
        )
        return tails, self.heads, self.lens, self.hops


class DynamicAdjacency:
    """Bulk-editable directed graph for batched contraction.

    Parameters
    ----------
    graph:
        Initial arcs (self loops dropped, parallels collapsed to the
        shortest — only shortest paths matter downstream).
    rebuild_every:
        Compact the base CSR (dropping retired arcs and folding the
        overlay in) every this many :meth:`end_round` calls.  Rebuilds
        also trigger early when the overlay outgrows a quarter of the
        base, keeping gathers cache-friendly.
    """

    def __init__(self, graph: StaticGraph, *, rebuild_every: int = 4) -> None:
        self.n = graph.n
        tails = graph.arc_tails()
        heads = graph.arc_head.astype(np.int64)
        lens = graph.arc_len.astype(np.int64)
        proper = tails != heads
        tails, heads, lens = tails[proper], heads[proper], lens[proper]
        hops = np.ones(tails.size, dtype=np.int64)
        tails, heads, lens, hops = _dedup_min(tails, heads, lens, hops)
        self.fwd = _Half(self.n, tails, heads, lens, hops)
        self.bwd = _Half(self.n, heads, tails, lens, hops)
        self.retired = np.zeros(self.n, dtype=bool)
        self.live_vertices = self.n
        self.live_arcs = int(tails.size)
        self.rebuild_every = max(1, int(rebuild_every))
        self._pending: list[tuple[np.ndarray, ...]] = []
        self._overlay_coo: tuple[np.ndarray, ...] | None = None
        self._rounds_since_rebuild = 0
        self.rebuilds = 0
        self.rebuild_seconds = 0.0
        #: Bumped whenever the base CSR changes (i.e. on every rebuild).
        #: Snapshot consumers republish base arrays only on a new epoch.
        self.epoch = 0

    # -- snapshots ---------------------------------------------------------

    def base_arrays(self) -> dict[str, np.ndarray]:
        """The base CSR of both halves as a flat name → array mapping.

        Valid for the current :attr:`epoch` only: a rebuild replaces
        every array.  Publishing these (e.g. into shared memory) plus
        :meth:`overlay_arrays` and :attr:`retired` fully describes the
        live graph to a read-only replica.
        """
        return {
            "fwd:first": self.fwd.first,
            "fwd:heads": self.fwd.heads,
            "fwd:lens": self.fwd.lens,
            "fwd:hops": self.fwd.hops,
            "bwd:first": self.bwd.first,
            "bwd:heads": self.bwd.heads,
            "bwd:lens": self.bwd.lens,
            "bwd:hops": self.bwd.hops,
        }

    def overlay_arrays(self) -> dict[str, np.ndarray]:
        """Arcs inserted since the last rebuild, as COO arrays."""
        if self._overlay_coo is None:
            empty = np.zeros(0, dtype=np.int64)
            return {
                "ov:tails": empty, "ov:heads": empty,
                "ov:lens": empty, "ov:hops": empty,
            }
        t, h, l, hp = self._overlay_coo
        return {"ov:tails": t, "ov:heads": h, "ov:lens": l, "ov:hops": hp}

    @classmethod
    def from_snapshot(
        cls,
        n: int,
        base: "dict[str, np.ndarray]",
        overlay: "dict[str, np.ndarray]",
        retired: np.ndarray,
    ) -> "DynamicAdjacency":
        """Read-only replica over published snapshot arrays (zero-copy).

        ``base``/``overlay`` use the key naming of :meth:`base_arrays`
        and :meth:`overlay_arrays`.  Gathers on the replica are
        bit-identical to the publisher's: the base arrays are shared
        verbatim and the overlay COO is regrouped with the same stable
        sort :meth:`end_round` uses.  The replica must never be
        mutated (``add_arcs``/``retire``/``end_round`` would diverge
        from the publisher).
        """
        self = cls.__new__(cls)
        self.n = n
        self.fwd = _Half.from_csr(
            n, base["fwd:first"], base["fwd:heads"],
            base["fwd:lens"], base["fwd:hops"],
        )
        self.bwd = _Half.from_csr(
            n, base["bwd:first"], base["bwd:heads"],
            base["bwd:lens"], base["bwd:hops"],
        )
        t, h, l, hp = (
            overlay["ov:tails"], overlay["ov:heads"],
            overlay["ov:lens"], overlay["ov:hops"],
        )
        if t.size:
            self.fwd.set_overlay(t, h, l, hp)
            self.bwd.set_overlay(h, t, l, hp)
        self.retired = retired
        self.live_vertices = int(n - int(retired.sum()))
        self.live_arcs = int(base["fwd:heads"].size + t.size)
        self.rebuild_every = 1
        self._pending = []
        self._overlay_coo = None
        self._rounds_since_rebuild = 0
        self.rebuilds = 0
        self.rebuild_seconds = 0.0
        self.epoch = 0
        return self

    # -- reads -------------------------------------------------------------

    def out_arcs_of(self, verts: np.ndarray):
        """Live out-arcs of ``verts`` as ``(owner, head, len, hops)``,
        parallels collapsed to the shortest per ``(owner, head)``."""
        return self._dedup_gather(*self.fwd.gather(verts, self.retired))

    def in_arcs_of(self, verts: np.ndarray):
        """Live in-arcs of ``verts`` as ``(owner, tail, len, hops)``."""
        return self._dedup_gather(*self.bwd.gather(verts, self.retired))

    def raw_out_arcs_of(self, verts: np.ndarray):
        """Like :meth:`out_arcs_of` but without parallel-arc dedup —
        the relaxation inner loop takes minima anyway."""
        return self.fwd.gather(verts, self.retired)

    @staticmethod
    def _dedup_gather(owner, other, length, hops):
        if not owner.size:
            return owner, other, length, hops
        order = np.lexsort((hops, length, other, owner))
        owner, other, length, hops = (
            owner[order], other[order], length[order], hops[order]
        )
        keep = np.empty(owner.size, dtype=bool)
        keep[0] = True
        keep[1:] = (owner[1:] != owner[:-1]) | (other[1:] != other[:-1])
        return owner[keep], other[keep], length[keep], hops[keep]

    def live_arc_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All arcs between two live vertices as ``(tails, heads)``.

        Used for the independent-set selection; parallels may repeat
        (harmless for a neighbour relation).
        """
        t_b = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.fwd.first)
        )
        h_b = self.fwd.heads
        t_o = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.fwd.o_first)
        )
        h_o = self.fwd.o_heads
        tails = np.concatenate([t_b, t_o])
        heads = np.concatenate([h_b, h_o])
        live = ~self.retired[tails] & ~self.retired[heads]
        return tails[live], heads[live]

    @property
    def avg_degree(self) -> float:
        """Live out-arcs per live vertex (the hop-schedule input)."""
        if self.live_vertices == 0:
            return 0.0
        return self.live_arcs / self.live_vertices

    # -- writes ------------------------------------------------------------

    def add_arcs(self, tails, heads, lens, hops) -> None:
        """Buffer arc insertions; applied by :meth:`end_round`."""
        tails = np.asarray(tails, dtype=np.int64)
        if not tails.size:
            return
        self._pending.append((
            tails,
            np.asarray(heads, dtype=np.int64),
            np.asarray(lens, dtype=np.int64),
            np.asarray(hops, dtype=np.int64),
        ))

    def retire(self, verts: np.ndarray, removed_arcs: int) -> None:
        """Mark ``verts`` contracted (their arcs die lazily).

        ``removed_arcs`` is the number of live arcs incident to
        ``verts`` (the caller has them gathered already); it keeps the
        :attr:`live_arcs` counter — and with it the hop schedule —
        current between rebuilds.
        """
        self.retired[verts] = True
        self.live_vertices -= int(np.size(verts))
        self.live_arcs -= int(removed_arcs)

    def end_round(self) -> None:
        """Fold buffered insertions in; rebuild the base when due."""
        self._rounds_since_rebuild += 1
        if self._pending:
            new = tuple(
                np.concatenate([p[i] for p in self._pending])
                for i in range(4)
            )
            self._pending.clear()
            self.live_arcs += int(new[0].size)
            if self._overlay_coo is None:
                self._overlay_coo = new
            else:
                self._overlay_coo = tuple(
                    np.concatenate([a, b])
                    for a, b in zip(self._overlay_coo, new)
                )
        overlay_size = (
            self._overlay_coo[0].size if self._overlay_coo is not None else 0
        )
        base_size = self.fwd.heads.size
        due = self._rounds_since_rebuild >= self.rebuild_every
        bulky = overlay_size > max(1024, base_size // 4)
        if overlay_size and (due or bulky):
            self._rebuild()
        elif self._overlay_coo is not None:
            t, h, l, hp = self._overlay_coo
            self.fwd.set_overlay(t, h, l, hp)
            self.bwd.set_overlay(h, t, l, hp)
        elif due:
            # No insertions, but retired arcs accumulate: compact if a
            # sizable share of the base is dead.
            dead = self.retired[self.fwd.heads].sum()
            if dead > base_size // 4:
                self._rebuild()

    def _rebuild(self) -> None:
        """Compact base + overlay into a fresh, dedup'd, live-only CSR."""
        start = time.perf_counter()
        tails, heads, lens, hops = self.fwd.base_arcs()
        if self._overlay_coo is not None:
            o_t, o_h, o_l, o_hp = self._overlay_coo
            tails = np.concatenate([tails, o_t])
            heads = np.concatenate([heads, o_h])
            lens = np.concatenate([lens, o_l])
            hops = np.concatenate([hops, o_hp])
        live = ~self.retired[tails] & ~self.retired[heads]
        tails, heads, lens, hops = (
            tails[live], heads[live], lens[live], hops[live]
        )
        tails, heads, lens, hops = _dedup_min(tails, heads, lens, hops)
        self.fwd = _Half(self.n, tails, heads, lens, hops)
        self.bwd = _Half(self.n, heads, tails, lens, hops)
        self._overlay_coo = None
        self._rounds_since_rebuild = 0
        self.live_arcs = int(tails.size)
        self.rebuilds += 1
        self.epoch += 1
        self.rebuild_seconds += time.perf_counter() - start
