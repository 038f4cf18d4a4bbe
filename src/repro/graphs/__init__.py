"""Graph substrate: CSR graphs, generators, connectivity, and I/O."""

from .csr import Graph, build_graph, from_edges, symmetrize_edges
from .connectivity import (
    approximate_diameter,
    component_sizes,
    connected_components,
    largest_component,
)
from .generators import chung_lu_graph, social_graph, uniform_random_weights, web_graph
from .knn import clustered_points, knn_graph, skewed_points, uniform_points
from .road import road_graph
from .shm import SharedGraph, ShmFingerprintError
from .validate import assert_valid, validate_graph
from . import io

__all__ = [
    "Graph",
    "build_graph",
    "from_edges",
    "symmetrize_edges",
    "connected_components",
    "component_sizes",
    "largest_component",
    "approximate_diameter",
    "chung_lu_graph",
    "social_graph",
    "web_graph",
    "uniform_random_weights",
    "knn_graph",
    "uniform_points",
    "clustered_points",
    "skewed_points",
    "road_graph",
    "SharedGraph",
    "ShmFingerprintError",
    "validate_graph",
    "assert_valid",
    "io",
]
