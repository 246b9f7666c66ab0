"""PHAST core: sweep structure, query engines, parallel drivers, trees."""

from .gphast import GphastEngine, GphastResult
from .many_to_many import many_to_many_buckets
from ..utils.workers import resolve_workers
from .parallel import block_boundaries, tree_level_parallel, trees_per_core
from .phast import PhastEngine, phast_original_order, phast_scalar
from .pool import (
    PhastPool,
    TaskContext,
    TaskPool,
    TreeReducer,
    install_signal_guard,
)
from .rphast import RPhastEngine, SelectionCache
from .supervisor import (
    ChunkQuarantined,
    FaultPlan,
    PoolBroken,
    WorkerSupervisor,
    parse_fault_plan,
)
from .sweep import LevelSweep, SweepStructure
from .trees import (
    parents_in_original_graph,
    subtree_aggregate,
    tree_depths,
    validate_tree,
)

__all__ = [
    "PhastEngine",
    "phast_scalar",
    "phast_original_order",
    "RPhastEngine",
    "SelectionCache",
    "many_to_many_buckets",
    "SweepStructure",
    "LevelSweep",
    "GphastEngine",
    "GphastResult",
    "PhastPool",
    "TaskPool",
    "TaskContext",
    "TreeReducer",
    "install_signal_guard",
    "WorkerSupervisor",
    "FaultPlan",
    "parse_fault_plan",
    "ChunkQuarantined",
    "PoolBroken",
    "trees_per_core",
    "tree_level_parallel",
    "block_boundaries",
    "resolve_workers",
    "parents_in_original_graph",
    "validate_tree",
    "subtree_aggregate",
    "tree_depths",
]
