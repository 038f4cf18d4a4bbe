"""Orionet core: the PPSP framework, its policies, and batch solvers."""

from .answer import QueryAnswer
from .batch import BATCH_METHODS, BatchResult, solve_batch
from .engine import RunResult, run_policy
from .frontier import Frontier
from .paths import PathError, meeting_vertex, stitch_bidirectional_path, walk_path
from .policies import AStar, BiDAStar, BiDS, EarlyTermination, MultiPPSP, Policy, SsspPolicy
from .query_graph import PATTERNS, QueryGraph, vertex_cover
from .query_types import arbitrary_batch, multi_stop, pairwise, ssmt, subset_apsp
from .reference import run_policy_reference
from .sssp import sssp, sssp_distances
from .tracing import StepRecord, StepTrace
from .stepping import (
    BellmanFord,
    DeltaStepping,
    DijkstraOrder,
    RhoStepping,
    SteppingStrategy,
    default_strategy,
)

__all__ = [
    "RunResult",
    "run_policy",
    "run_policy_reference",
    "Frontier",
    "Policy",
    "SsspPolicy",
    "EarlyTermination",
    "AStar",
    "BiDS",
    "BiDAStar",
    "MultiPPSP",
    "QueryGraph",
    "vertex_cover",
    "PATTERNS",
    "BatchResult",
    "QueryAnswer",
    "solve_batch",
    "BATCH_METHODS",
    "ssmt",
    "pairwise",
    "multi_stop",
    "subset_apsp",
    "arbitrary_batch",
    "StepTrace",
    "StepRecord",
    "sssp",
    "sssp_distances",
    "walk_path",
    "stitch_bidirectional_path",
    "meeting_vertex",
    "PathError",
    "SteppingStrategy",
    "DeltaStepping",
    "RhoStepping",
    "BellmanFord",
    "DijkstraOrder",
    "default_strategy",
]
