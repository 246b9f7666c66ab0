"""Cache-efficient static graph representation.

This module implements the array-pair representation described in
Section IV-A of the PHAST paper: a directed graph is stored as

* ``first`` — an array of length ``n + 1`` indexed by vertex ID;
  ``first[v]`` is the position in ``arc_head``/``arc_len`` of the first
  arc incident to ``v`` (outgoing for a forward graph, incoming for a
  reverse graph).  ``first[n]`` is a sentinel equal to ``m`` so that the
  arcs of ``v`` always occupy ``arc_head[first[v]:first[v + 1]]``.
* ``arc_head`` — for each arc, the ID of its *other* endpoint (the head
  for a forward graph, the tail for a reverse graph).
* ``arc_len`` — the (non-negative, integral) length of each arc.

All three arrays are contiguous NumPy arrays, which makes a sweep over
the full arc list a purely sequential memory access pattern — the
property PHAST's linear sweep exploits.

Lengths are 64-bit integers; the paper uses 32-bit labels but Python has
no advantage in narrower types and 64 bits removes any overflow concern
when summing path lengths.  Infinite distances are represented by
:data:`INF`, chosen so that ``INF + max_len`` cannot overflow.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["INF", "StaticGraph", "arcs_sorted_by_tail"]

#: Sentinel distance for "unreached".  Large enough to dominate any real
#: path length, small enough that ``INF + arc length`` never overflows
#: a signed 64-bit integer.
INF: int = np.int64(2**62)


def arcs_sorted_by_tail(
    n: int,
    tails: np.ndarray,
    heads: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(first, arc_head, arc_len)`` CSR arrays for the given arcs.

    Arcs are grouped by tail; the relative order of arcs sharing a tail
    is preserved (stable sort), matching the "sorted by tail ID" layout
    of the paper's ``arclist``.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not (tails.shape == heads.shape == lengths.shape):
        raise ValueError("tails, heads and lengths must have equal shapes")
    order = np.argsort(tails, kind="stable")
    first = np.zeros(n + 1, dtype=np.int64)
    np.add.at(first, tails + 1, 1)
    np.cumsum(first, out=first)
    return first, heads[order], lengths[order]


class StaticGraph:
    """An immutable directed graph in CSR (``first``/``arclist``) form.

    Parameters
    ----------
    n:
        Number of vertices; vertices are the integers ``0 .. n - 1``.
    tails, heads, lengths:
        Parallel arrays describing the arcs.  Arc lengths must be
        non-negative integers.

    Notes
    -----
    The class stores *outgoing* adjacency.  Use :meth:`reverse` to build
    the graph with incoming adjacency (``arc_head`` then holds tail
    IDs), which is what PHAST's downward sweep scans.
    """

    __slots__ = ("n", "m", "first", "arc_head", "arc_len", "_arc_tails",
                 "__weakref__")

    def __init__(
        self,
        n: int,
        tails: Sequence[int] | np.ndarray,
        heads: Sequence[int] | np.ndarray,
        lengths: Sequence[int] | np.ndarray,
    ) -> None:
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if tails.size:
            if tails.min() < 0 or tails.max() >= n:
                raise ValueError("arc tail out of range")
            if heads.min() < 0 or heads.max() >= n:
                raise ValueError("arc head out of range")
            if lengths.min() < 0:
                raise ValueError("arc lengths must be non-negative")
        self.n: int = int(n)
        self.m: int = int(tails.size)
        self.first, self.arc_head, self.arc_len = arcs_sorted_by_tail(
            n, tails, heads, lengths
        )

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_csr(
        cls, first: np.ndarray, arc_head: np.ndarray, arc_len: np.ndarray
    ) -> "StaticGraph":
        """Wrap already-built CSR arrays without copying or validation."""
        g = cls.__new__(cls)
        g.n = int(first.size - 1)
        g.m = int(arc_head.size)
        g.first = np.ascontiguousarray(first, dtype=np.int64)
        g.arc_head = np.ascontiguousarray(arc_head, dtype=np.int64)
        g.arc_len = np.ascontiguousarray(arc_len, dtype=np.int64)
        return g

    @classmethod
    def from_arcs(
        cls, n: int, arcs: Iterable[tuple[int, int, int]]
    ) -> "StaticGraph":
        """Build from an iterable of ``(tail, head, length)`` triples."""
        arcs = list(arcs)
        if not arcs:
            return cls(n, [], [], [])
        t, h, l = zip(*arcs)
        return cls(n, t, h, l)

    # -- queries ----------------------------------------------------------

    def out_degree(self, v: int) -> int:
        """Number of arcs stored at vertex ``v``."""
        return int(self.first[v + 1] - self.first[v])

    def degrees(self) -> np.ndarray:
        """Vector of stored arc counts for every vertex."""
        return np.diff(self.first)

    def neighbors(self, v: int) -> np.ndarray:
        """IDs at the far end of the arcs stored at ``v`` (a view)."""
        return self.arc_head[self.first[v] : self.first[v + 1]]

    def arc_lengths(self, v: int) -> np.ndarray:
        """Lengths of the arcs stored at ``v`` (a view)."""
        return self.arc_len[self.first[v] : self.first[v + 1]]

    def arc_tails(self) -> np.ndarray:
        """Expand the CSR structure back into a per-arc tail array.

        Memoized: the O(m) ``np.repeat`` expansion is computed once and
        the (read-only) array reused — tree-per-source workloads call
        this once per tree otherwise.
        """
        try:
            return self._arc_tails
        except AttributeError:
            pass
        tails = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.first))
        tails.setflags(write=False)
        self._arc_tails = tails
        return tails

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Iterate all arcs as ``(tail, head, length)`` triples."""
        tails = self.arc_tails()
        for t, h, l in zip(tails, self.arc_head, self.arc_len):
            yield int(t), int(h), int(l)

    def has_arc(self, u: int, v: int) -> bool:
        """True if an arc from ``u``'s adjacency to ``v`` exists."""
        return bool(np.any(self.neighbors(u) == v))

    def arc_length(self, u: int, v: int) -> int:
        """Length of the shortest stored arc ``u -> v``.

        Raises ``KeyError`` if no such arc exists.  Parallel arcs are
        allowed; the minimum length is returned.
        """
        mask = self.neighbors(u) == v
        if not mask.any():
            raise KeyError(f"no arc {u} -> {v}")
        return int(self.arc_lengths(u)[mask].min())

    # -- transforms -------------------------------------------------------

    def reverse(self) -> "StaticGraph":
        """The same arcs with direction flipped (heads become tails)."""
        return StaticGraph(self.n, self.arc_head, self.arc_tails(), self.arc_len)

    def permute(self, new_id: np.ndarray) -> "StaticGraph":
        """Relabel vertices: vertex ``v`` becomes ``new_id[v]``.

        ``new_id`` must be a permutation of ``0 .. n - 1``.  The arc set
        is unchanged up to relabeling; the CSR arrays are rebuilt in the
        new ID order, which is how the paper's reorderings change the
        physical memory layout.
        """
        new_id = np.asarray(new_id, dtype=np.int64)
        if new_id.shape != (self.n,):
            raise ValueError("permutation has wrong size")
        check = np.zeros(self.n, dtype=bool)
        check[new_id] = True
        if not check.all():
            raise ValueError("new_id is not a permutation")
        tails = new_id[self.arc_tails()]
        heads = new_id[self.arc_head]
        return StaticGraph(self.n, tails, heads, self.arc_len)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StaticGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.first, other.first))
            and bool(np.array_equal(self.arc_head, other.arc_head))
            and bool(np.array_equal(self.arc_len, other.arc_len))
        )

    def __hash__(self) -> int:  # graphs are mutable-array holders
        raise TypeError("StaticGraph is not hashable")

    def __repr__(self) -> str:
        return f"StaticGraph(n={self.n}, m={self.m})"

    @property
    def nbytes(self) -> int:
        """Total bytes held by the CSR arrays (used by memory reports)."""
        return self.first.nbytes + self.arc_head.nbytes + self.arc_len.nbytes
