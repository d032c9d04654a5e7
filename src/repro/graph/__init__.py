"""Graph substrate: generators, partitioning, delegates."""

from .delegates import (
    DelegateSet,
    build_delegates,
    degrees_from_edges,
    find_delegates,
    rmat_expected_max_degree,
    scaled_delegate_threshold,
)
from .generators import (
    EdgeStream,
    GRAPH500_PARAMS,
    UNIFORM_PARAMS,
    erdos_renyi_edges,
    er_stream,
    permute_vertices,
    rmat_edges,
    rmat_stream,
)
from .partition import BlockPartition, CyclicPartition

__all__ = [
    "BlockPartition",
    "CyclicPartition",
    "DelegateSet",
    "EdgeStream",
    "GRAPH500_PARAMS",
    "UNIFORM_PARAMS",
    "build_delegates",
    "degrees_from_edges",
    "er_stream",
    "erdos_renyi_edges",
    "find_delegates",
    "permute_vertices",
    "rmat_edges",
    "rmat_expected_max_degree",
    "rmat_stream",
    "scaled_delegate_threshold",
]
