"""Binary serialization for graphs and hierarchies.

CH preprocessing is the expensive step of the pipeline (minutes at
scale); production deployments compute it once and ship the artifact.
Graphs and hierarchies round-trip through NumPy ``.npz`` containers —
compact, mmap-friendly, dependency-free.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .csr import StaticGraph

__all__ = [
    "save_graph",
    "load_graph",
    "save_hierarchy",
    "load_hierarchy",
    "save_topology",
    "load_topology",
    "save_metric",
    "load_metric",
    "ArtifactFormatError",
]

_GRAPH_MAGIC_PREFIX = "repro-graph-v"
_CH_MAGIC_PREFIX = "repro-ch-v"
_TOPO_MAGIC_PREFIX = "repro-topo-v"
_METRIC_MAGIC_PREFIX = "repro-metric-v"
_GRAPH_MAGIC = _GRAPH_MAGIC_PREFIX + "1"
_CH_MAGIC = _CH_MAGIC_PREFIX + "1"
# v2 topologies hold a symmetric closure with reverse-arc ids; v2
# metrics hold perfect weights and the kept-arc mask.  A v1 metric's
# weights are not perfect, so pruning it would serve wrong distances.
_TOPO_MAGIC = _TOPO_MAGIC_PREFIX + "2"
_METRIC_MAGIC = _METRIC_MAGIC_PREFIX + "2"


class ArtifactFormatError(ValueError):
    """A ``.npz`` artifact is not readable by this build.

    Distinguishes *foreign file* (no/unknown magic) from *stale
    artifact* (right family, wrong format version) so long-lived
    consumers — the query server in particular — fail fast with an
    actionable message instead of crashing on a missing array key
    deep inside a query.
    """


def _check_magic(data, path, *, prefix: str, current: str, kind: str) -> None:
    if "magic" not in data:
        raise ArtifactFormatError(
            f"{path}: not a repro {kind} file (missing magic header)"
        )
    magic = str(data["magic"])
    if magic == current:
        return
    if magic.startswith(prefix):
        raise ArtifactFormatError(
            f"{path}: {kind} format version mismatch: file was written as "
            f"{magic!r} but this build reads {current!r}; regenerate the "
            f"artifact (repro {'preprocess' if kind == 'hierarchy' else 'generate/convert'})"
        )
    raise ArtifactFormatError(
        f"{path}: not a repro {kind} file (magic {magic!r})"
    )


def save_graph(graph: StaticGraph, path: str | Path) -> None:
    """Write a :class:`StaticGraph` to ``path`` (.npz)."""
    np.savez_compressed(
        path,
        magic=np.array(_GRAPH_MAGIC),
        first=graph.first,
        arc_head=graph.arc_head,
        arc_len=graph.arc_len,
    )


def load_graph(path: str | Path) -> StaticGraph:
    """Read a graph written by :func:`save_graph`."""
    with np.load(path, allow_pickle=False) as data:
        _check_magic(
            data, path, prefix=_GRAPH_MAGIC_PREFIX, current=_GRAPH_MAGIC,
            kind="graph",
        )
        return StaticGraph.from_csr(
            data["first"], data["arc_head"], data["arc_len"]
        )


def save_hierarchy(ch, path: str | Path) -> None:
    """Write a :class:`~repro.ch.ContractionHierarchy` to ``path`` (.npz)."""
    np.savez_compressed(
        path,
        magic=np.array(_CH_MAGIC),
        rank=ch.rank,
        level=ch.level,
        up_first=ch.upward.first,
        up_head=ch.upward.arc_head,
        up_len=ch.upward.arc_len,
        up_via=ch.upward_via,
        down_first=ch.downward_rev.first,
        down_head=ch.downward_rev.arc_head,
        down_len=ch.downward_rev.arc_len,
        down_via=ch.downward_via,
        num_shortcuts=np.array(ch.num_shortcuts),
    )


def load_hierarchy(path: str | Path):
    """Read a hierarchy written by :func:`save_hierarchy`."""
    from ..ch.hierarchy import ContractionHierarchy

    with np.load(path, allow_pickle=False) as data:
        _check_magic(
            data, path, prefix=_CH_MAGIC_PREFIX, current=_CH_MAGIC,
            kind="hierarchy",
        )
        upward = StaticGraph.from_csr(
            data["up_first"], data["up_head"], data["up_len"]
        )
        downward_rev = StaticGraph.from_csr(
            data["down_first"], data["down_head"], data["down_len"]
        )
        return ContractionHierarchy(
            n=upward.n,
            rank=data["rank"],
            level=data["level"],
            upward=upward,
            upward_via=data["up_via"],
            downward_rev=downward_rev,
            downward_via=data["down_via"],
            num_shortcuts=int(data["num_shortcuts"]),
            preprocessing_stats={"loaded_from": str(path)},
        )


def save_topology(topology, path: str | Path) -> None:
    """Write a :class:`~repro.ch.customize.CHTopology` to ``path`` (.npz).

    Stored uncompressed: the triangle enumeration dominates the file
    and is high-entropy index data, so compression buys little and
    costs minutes at road-network scale.
    """
    np.savez(
        path,
        magic=np.array(_TOPO_MAGIC),
        key=np.array(topology.key),
        num_base_arcs=np.array(topology.num_base_arcs),
        **topology.arrays(),
    )


def load_topology(path: str | Path):
    """Read a topology written by :func:`save_topology`."""
    from ..ch.customize import CHTopology

    with np.load(path, allow_pickle=False) as data:
        _check_magic(
            data, path, prefix=_TOPO_MAGIC_PREFIX, current=_TOPO_MAGIC,
            kind="topology",
        )
        arrays = {k: data[k] for k in CHTopology._ARRAY_KEYS}
        try:
            topo = CHTopology.from_arrays(
                arrays,
                num_base_arcs=int(data["num_base_arcs"]),
                stats={"loaded_from": str(path)},
            )
        except ValueError as exc:
            raise ArtifactFormatError(f"{path}: {exc}") from None
        stored = str(data["key"])
        if topo.key != stored:
            raise ArtifactFormatError(
                f"{path}: topology content hash {topo.key!r} does not match "
                f"stored key {stored!r}; the artifact is corrupt"
            )
        return topo


def save_metric(metric, path: str | Path) -> None:
    """Write a :class:`~repro.ch.customize.CHMetric` to ``path`` (.npz)."""
    np.savez(
        path,
        magic=np.array(_METRIC_MAGIC),
        topology_key=np.array(metric.topology_key),
        weights=metric.weights,
        via=metric.via,
        keep=metric.keep,
        unreachable_base_arcs=np.array(metric.unreachable_base_arcs),
    )


def load_metric(path: str | Path, *, topology=None):
    """Read a metric written by :func:`save_metric`.

    ``topology=`` cross-checks the metric against the topology it will
    instantiate — a weight vector customized for a different closure
    would silently produce wrong distances, so the pairing is verified
    here, at load time, not deep inside a swap.
    """
    from ..ch.customize import CHMetric

    with np.load(path, allow_pickle=False) as data:
        _check_magic(
            data, path, prefix=_METRIC_MAGIC_PREFIX, current=_METRIC_MAGIC,
            kind="metric",
        )
        metric = CHMetric(
            topology_key=str(data["topology_key"]),
            weights=data["weights"],
            via=data["via"],
            keep=data["keep"],
            unreachable_base_arcs=int(data["unreachable_base_arcs"]),
            stats={"loaded_from": str(path)},
        )
    if topology is not None and metric.topology_key != topology.key:
        raise ArtifactFormatError(
            f"{path}: metric was customized for topology "
            f"{metric.topology_key!r}, not {topology.key!r}"
        )
    return metric
