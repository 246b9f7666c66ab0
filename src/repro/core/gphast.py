"""GPHAST: the PHAST sweep on a (modeled) GPU (Section VI).

The CPU stays responsible for the upward CH searches; the linear sweep
is "outsourced" to the GPU — here, executed numerically by the same
vectorized kernel PHAST uses, while a :class:`~repro.simulator.gpu.
GpuCostModel` charges the schedule (one kernel per level, one thread
per vertex and tree, coalesced transactions) to a real card's spec
sheet.  Distances are therefore exact and bit-identical to PHAST; the
*time* is the model's output, reported alongside.

The paper's rejected design — reordering vertices by degree so warps
process equal-degree vertices — is also modeled
(:meth:`GphastEngine.degree_ordered_report`) to reproduce the
Section VI observation that it hurts tail-label locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..ch.hierarchy import ContractionHierarchy
from ..simulator.gpu import GTX_580, GpuCostModel, GpuSpec, GpuSweepReport
from .phast import PhastEngine

__all__ = ["GphastEngine", "GphastResult"]


@dataclass
class GphastResult:
    """Distances plus the modeled GPU cost of producing them."""

    sources: np.ndarray
    dist: np.ndarray  # (k, n), original vertex IDs
    report: GpuSweepReport
    ch_search_ms_estimate: float
    parents: list[np.ndarray] | None = None  # per source, in G+


class GphastEngine:
    """GPHAST query engine: exact sweeps, modeled GPU timing.

    Parameters
    ----------
    ch:
        Preprocessed hierarchy.
    gpu:
        Card to model (default: the paper's GTX 580).
    """

    def __init__(self, ch: ContractionHierarchy, gpu: GpuSpec = GTX_580) -> None:
        self.engine = PhastEngine(ch)
        self.model = GpuCostModel(gpu)
        sw = self.engine.sweep
        self._level_verts = sw.level_sizes()
        self._level_arcs = np.diff(sw.arc_first[sw.level_first])

    @property
    def sweep(self):
        return self.engine.sweep

    def trees(self, sources) -> GphastResult:
        """Compute ``k = len(sources)`` trees in one modeled sweep."""
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        k = int(sources.size)
        if k == 1:
            dist = self.engine.tree(int(sources[0])).dist[None, :]
        else:
            dist = self.engine.trees(sources)
        report = self.model.sweep_cost(
            self._level_verts,
            self._level_arcs,
            k,
            n=self.engine.sweep.n,
            m=self.engine.sweep.num_arcs,
        )
        # CH searches run on the CPU; the paper measures < 0.05 ms per
        # source including the < 2 KB host-to-device copy.
        ch_ms = 0.05 * k
        return GphastResult(
            sources=sources, dist=dist, report=report, ch_search_ms_estimate=ch_ms
        )

    def trees_with_parents(self, sources) -> GphastResult:
        """Trees plus parent pointers, with the reconstruction modeled.

        Section VII-B-b uses "GPHAST with tree reconstruction" to cut
        arc-flag preprocessing to minutes: recovering parents costs one
        extra pass over the arc list per tree (checking the identity
        ``d(v) = d(u) + l(u, v)``), which the model charges as pure
        additional streaming traffic.
        """
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        result = self.trees(sources)
        k = int(sources.size)
        result.parents = [
            self.engine._parents_gplus(int(s), result.dist[i])
            for i, s in enumerate(sources)
        ]
        sw = self.engine.sweep
        # Extra pass: arc records + tail labels + parent writes, per tree.
        extra_bytes = k * (sw.num_arcs * 12 + sw.n * 4)
        extra_ms = extra_bytes / (self.model.spec.mem_bandwidth_gbs * 1e9) * 1e3
        r = result.report
        r.total_ms += extra_ms
        r.per_tree_ms = r.total_ms / max(1, k)
        r.memory_ms += extra_ms
        return result

    def degree_ordered_report(self, k: int = 1) -> GpuSweepReport:
        """Model the rejected degree-ordered warp assignment.

        Sorting vertices by degree within a level makes warps uniform
        but destroys the level-locality of tail labels: the gather hits
        a different transaction per lane.  The model charges the gather
        at full transaction width per lane with no k-lane sharing,
        which is what the paper observed ("a strong negative effect on
        the locality of the distance labels").
        """
        spec = self.model.spec
        degraded = GpuCostModel(
            GpuSpec(
                name=spec.name + " (degree-ordered)",
                sms=spec.sms,
                cores_per_sm=spec.cores_per_sm,
                warp_size=spec.warp_size,
                core_clock_mhz=spec.core_clock_mhz,
                mem_clock_mhz=spec.mem_clock_mhz,
                mem_bandwidth_gbs=spec.mem_bandwidth_gbs,
                mem_gb=spec.mem_gb,
                kernel_launch_us=spec.kernel_launch_us,
                # Every lane's gather fetches its own 32-byte segment.
                transaction_bytes=32 * max(1, k),
                instr_per_relaxation=spec.instr_per_relaxation,
                instr_per_label_write=spec.instr_per_label_write,
            )
        )
        return degraded.sweep_cost(
            self._level_verts, self._level_arcs, k,
            n=self.engine.sweep.n, m=self.engine.sweep.num_arcs,
        )
