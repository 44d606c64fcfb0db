"""confres: finite-resolution attraction-repulsion clustering toolkit."""

__version__ = "0.1.0"

from .graph import (AffinityGraph, NeighborGraph, build_knn_graph,
                    derive_affinity, from_edge_list)
from .energy import EnergySummary, canonicalize, hamiltonian, landscape_point, move_delta
from .optimizer import AggregateGraph, OptimizeOptions, aggregate, optimize

__all__ = [
    "AffinityGraph", "NeighborGraph", "build_knn_graph", "derive_affinity",
    "from_edge_list", "EnergySummary", "canonicalize", "hamiltonian",
    "landscape_point", "move_delta", "AggregateGraph", "OptimizeOptions",
    "aggregate", "optimize", "__version__",
]
