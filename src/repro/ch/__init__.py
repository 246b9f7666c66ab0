"""Contraction hierarchies: preprocessing, queries, unpacking."""

from .batched import contract_graph
from .contraction import CHParams, contract_graph_lazy
from .customize import CHMetric, CHTopology, build_topology, customize
from .hierarchy import (
    ContractionHierarchy,
    assemble_hierarchy,
    build_csr_with_payload,
)
from .query import (
    CHQueryResult,
    UpwardSearchSpace,
    ch_query,
    unpack_arc,
    upward_search,
)

__all__ = [
    "CHParams",
    "contract_graph",
    "contract_graph_lazy",
    "CHMetric",
    "CHTopology",
    "build_topology",
    "customize",
    "ContractionHierarchy",
    "assemble_hierarchy",
    "build_csr_with_payload",
    "CHQueryResult",
    "UpwardSearchSpace",
    "ch_query",
    "unpack_arc",
    "upward_search",
]
