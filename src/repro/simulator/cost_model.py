"""CPU cost model: operation counts × machine specs → modeled time.

Pure-Python timings cannot reproduce the paper's absolute landscape
(C++/SSE on five machines), so the architecture experiments (Tables V
and VI) are driven by this model instead.  It decomposes each algorithm
into a *bandwidth* term (sequential bytes moved over the core's
effective share of its memory bank) and a *processing* term (operation
counts at calibrated cycles-per-operation), and adds a latency term for
cache-missing random reads.

Calibration: the per-operation constants are fit once against the
paper's measured M1-4 numbers for the 18M-vertex Europe graph
(Dijkstra 2.8 s, PHAST 172 ms, lower bound 65.6 ms — Sections II-A,
IV-A, VIII-B) and then *held fixed* across machines and inputs, so
Table V's cross-architecture landscape and Table VI's totals are
genuine predictions of the model, not per-cell fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.sweep import SweepStructure
from ..graph.csr import StaticGraph
from .machine import MachineSpec

__all__ = [
    "Calibration",
    "WorkloadCounts",
    "phast_counts",
    "dijkstra_counts",
    "CostModel",
]

LABEL_BYTES = 4
ARC_BYTES = 8
FIRST_BYTES = 4
CACHE_LINE = 64


@dataclass(frozen=True)
class Calibration:
    """Model constants (fit to M1-4, then held fixed).

    Attributes
    ----------
    single_core_bw_fraction:
        Share of a memory bank's theoretical bandwidth one core's
        streaming access achieves (the paper's single-core lower-bound
        test: 65.6 ms for ~414 MB on the 25.6 GB/s M1-4 ⇒ 0.25).
    aggregate_bw_fraction:
        Share of a bank's theoretical bandwidth *all* its cores achieve
        together (from the paper's 4-core lower-bound and k=1/4-core
        PHAST figures ⇒ ≈ 0.345).
    phast_cycles_arc_overhead:
        Per-arc loop work independent of the number of trees (branchy
        inner loop; Section VIII-B discusses why this dominates the
        lower bound).
    phast_cycles_per_lane:
        Per-arc work for each of the k trees of a sweep.
    phast_sse_speedup:
        Factor SSE takes off the per-lane processing term (paper: 2.6
        overall at k = 16).
    gather_miss_per_k, gather_miss_cap:
        Cache-miss fraction of the tail-label gather grows with k (the
        label block per vertex is k words, evicting more); misses move
        whole cache lines.
    dijkstra_cycles_per_arc, dijkstra_cycles_per_scan:
        Queue + relaxation work of Dijkstra's algorithm.
    dijkstra_miss_fraction:
        Fraction of label accesses missing cache under a DFS layout.
    dram_latency_ns:
        Cost of one cache-missing access.
    remote_penalty:
        Latency/bandwidth multiplier for unpinned threads on machines
        with several NUMA nodes (Section VIII-E).
    """

    single_core_bw_fraction: float = 0.25
    aggregate_bw_fraction: float = 0.345
    phast_cycles_arc_overhead: float = 3.0
    phast_cycles_per_lane: float = 4.0
    phast_cycles_per_vertex: float = 3.0
    phast_sse_speedup: float = 2.6
    gather_miss_per_k: float = 0.05
    gather_miss_cap: float = 0.35
    dijkstra_cycles_per_arc: float = 85.0
    dijkstra_cycles_per_scan: float = 55.0
    dijkstra_miss_fraction: float = 0.4
    dram_latency_ns: float = 60.0
    remote_penalty: float = 2.2


DEFAULT_CALIBRATION = Calibration()


@dataclass(frozen=True)
class WorkloadCounts:
    """Algorithm-independent size figures of one tree computation."""

    n: int
    arcs: int
    levels: int = 1


def phast_counts(sweep: SweepStructure) -> WorkloadCounts:
    """Counts of one PHAST sweep over ``sweep``'s downward graph."""
    return WorkloadCounts(n=sweep.n, arcs=sweep.num_arcs, levels=sweep.num_levels)


def dijkstra_counts(graph: StaticGraph) -> WorkloadCounts:
    """Counts of one full Dijkstra run over ``graph``."""
    return WorkloadCounts(n=graph.n, arcs=graph.m)


class CostModel:
    """Predicts per-tree milliseconds for one machine.

    Parameters
    ----------
    spec:
        Machine to model.
    calibration:
        Model constants; defaults are the M1-4 fit.
    """

    def __init__(
        self, spec: MachineSpec, calibration: Calibration = DEFAULT_CALIBRATION
    ) -> None:
        self.spec = spec
        self.cal = calibration
        # Random-access cost tracks the memory generation: older DRAM
        # is worse in both bandwidth and latency, and the paper's
        # "PHAST beats Dijkstra by a constant ~19x on every machine"
        # observation only holds if the two degrade together.  The
        # calibration latency is anchored at M1-4's 25.6 GB/s.
        self._latency_ns = calibration.dram_latency_ns * (
            25.6 / spec.bandwidth_gbs
        )

    # -- building blocks ---------------------------------------------------

    def _stream_ms(self, bytes_: float) -> float:
        """Time for one core to stream ``bytes_`` from its local bank."""
        per_core = (
            self.spec.bandwidth_gbs * 1e9 * self.cal.single_core_bw_fraction
        )
        return bytes_ / per_core * 1e3

    def _cpu_ms(self, cycles: float) -> float:
        return cycles / (self.spec.clock_ghz * 1e9) * 1e3

    # -- per-tree building blocks ------------------------------------------

    def _phast_bytes_per_tree(self, counts: WorkloadCounts, k: int) -> float:
        """DRAM bytes one tree costs inside a k-tree sweep.

        Graph arrays amortize over the k trees; each tree writes its
        own labels; the tail-label gather moves whole cache lines at a
        miss rate that grows with k (the per-vertex label block is k
        words, so less of the working set stays cached).
        """
        cal = self.cal
        shared = counts.arcs * ARC_BYTES + counts.n * FIRST_BYTES
        labels = counts.n * LABEL_BYTES
        miss = min(cal.gather_miss_cap, cal.gather_miss_per_k * k)
        gather = counts.arcs * min(k * LABEL_BYTES, CACHE_LINE) * miss / k
        return shared / k + labels + gather

    def _phast_cycles_per_tree(
        self, counts: WorkloadCounts, k: int, *, sse: bool
    ) -> float:
        """Scan-loop cycles one tree costs inside a k-tree sweep."""
        cal = self.cal
        lane = cal.phast_cycles_per_lane
        vert = cal.phast_cycles_per_vertex
        if sse:
            lane /= cal.phast_sse_speedup
            vert /= cal.phast_sse_speedup
        return counts.arcs * (cal.phast_cycles_arc_overhead / k + lane) + (
            counts.n * vert
        )

    # -- sequential algorithms ------------------------------------------------

    def phast_single(
        self, counts: WorkloadCounts, *, sse: bool = False
    ) -> float:
        """Sequential reordered PHAST, one tree per sweep."""
        return self.phast_per_tree_parallel(counts, 1, sse=sse)

    def phast_lower_bound(
        self, counts: WorkloadCounts, threads: int = 1, trees_per_sweep: int = 1
    ) -> float:
        """The Section VIII-B bandwidth floor, per tree.

        Stream the graph arrays once per sweep (amortized over
        ``trees_per_sweep`` trees) plus each tree's label array; no
        scattered gathers, no scan-loop work.
        """
        k = max(1, trees_per_sweep)
        shared = counts.arcs * ARC_BYTES + counts.n * FIRST_BYTES
        bytes_tree = shared / k + counts.n * LABEL_BYTES
        if threads <= 1:
            return self._stream_ms(bytes_tree)
        agg = (
            self.spec.bandwidth_gbs
            * 1e9
            * self.cal.aggregate_bw_fraction
            * max(1, min(self.spec.numa_nodes, threads))
        )
        return bytes_tree / agg * 1e3

    def dijkstra_single(self, counts: WorkloadCounts) -> float:
        """Sequential Dijkstra (smart queue, DFS layout)."""
        cal = self.cal
        cycles = (
            counts.arcs * cal.dijkstra_cycles_per_arc
            + counts.n * cal.dijkstra_cycles_per_scan
        )
        miss_ns = counts.arcs * cal.dijkstra_miss_fraction * self._latency_ns
        return self._cpu_ms(cycles) + miss_ns / 1e6

    # -- parallel execution -----------------------------------------------------

    def _aggregate_bw(self, threads: int, *, pinned: bool) -> float:
        """System bandwidth (bytes/s) available to ``threads`` workers.

        Pinned: data is replicated per bank, every bank contributes.
        Unpinned: data lives in one bank, and remote accesses pay the
        ``remote_penalty`` on top (Section VIII-E).
        """
        banks = max(1, self.spec.numa_nodes)
        bank_bw = self.spec.bandwidth_gbs * 1e9 * self.cal.aggregate_bw_fraction
        if pinned or banks == 1:
            used_banks = min(banks, threads)
            return bank_bw * used_banks
        return bank_bw / self.cal.remote_penalty

    def phast_per_tree_parallel(
        self,
        counts: WorkloadCounts,
        threads: int,
        *,
        pinned: bool = True,
        trees_per_sweep: int = 1,
        sse: bool = False,
    ) -> float:
        """System-wide per-tree ms with one k-tree sweep per core.

        The per-tree time is the larger of the compute-side throughput
        (each worker's cycles plus its unconstrained memory time,
        divided across workers) and the bandwidth floor (per-tree bytes
        over the aggregate achievable bandwidth) — the same two regimes
        Section VIII-C identifies, with the bandwidth wall binding at
        high core counts and high k.
        """
        cal = self.cal
        threads = max(1, min(threads, self.spec.cores))
        k = max(1, trees_per_sweep)
        bytes_tree = self._phast_bytes_per_tree(counts, k)
        cpu_ms = self._cpu_ms(self._phast_cycles_per_tree(counts, k, sse=sse))
        single_bw = (
            self.spec.bandwidth_gbs * 1e9 * cal.single_core_bw_fraction
        )
        if not pinned and self.spec.numa_nodes > 1:
            # Unpinned threads lose their local bank with probability
            # (B-1)/B; remote streams are slower by the penalty.
            b = self.spec.numa_nodes
            single_bw /= (1 + (b - 1) * cal.remote_penalty) / b
        worker_ms = cpu_ms + bytes_tree / single_bw * 1e3
        floor_ms = (
            bytes_tree / self._aggregate_bw(threads, pinned=pinned) * 1e3
        )
        return max(worker_ms / threads, floor_ms)

    def dijkstra_per_tree_parallel(
        self, counts: WorkloadCounts, threads: int, *, pinned: bool = True
    ) -> float:
        """System-wide per-tree ms for Dijkstra with one tree per core.

        Dijkstra is latency-bound, so it parallelizes almost linearly
        when pinned (the paper sees ~19–21x of PHAST's advantage hold
        across core counts); unpinned on a multi-socket box the random
        accesses pay the remote latency with probability (B-1)/B.
        """
        cal = self.cal
        threads = max(1, min(threads, self.spec.cores))
        base = self.dijkstra_single(counts)
        if not pinned and self.spec.numa_nodes > 1:
            b = self.spec.numa_nodes
            remote_fraction = (b - 1) / b
            miss_ms = (
                counts.arcs * cal.dijkstra_miss_fraction * self._latency_ns / 1e6
            )
            base += miss_ms * remote_fraction * (cal.remote_penalty - 1.0)
        # Memory-controller queueing among the cores of one bank.
        banks = max(1, self.spec.numa_nodes) if pinned else 1
        per_bank = -(-threads // banks)
        contention = 1.0 + 0.06 * max(0, per_bank - 1)
        return base * contention / threads

    def phast_single_tree_level_parallel(
        self, counts: WorkloadCounts, threads: int
    ) -> float:
        """One tree, levels processed by ``threads`` cores (Section V).

        Small top levels serialize; the model charges a per-level
        synchronization cost on top of divided work.
        """
        threads = min(threads, self.spec.cores)
        single = self.phast_per_tree_parallel(counts, 1)
        if threads <= 1:
            return single
        sync_ms = counts.levels * 2e-3  # barrier per level
        parallel = self.phast_per_tree_parallel(counts, threads)
        return parallel + sync_ms
