"""Orionet reproduction: parallel point-to-point shortest paths and batch queries.

A Python reproduction of *"Parallel Point-to-Point Shortest Paths and
Batch Queries"* (SPAA 2025): the PPSP framework over stepping-algorithm
SSSP, with early termination, A*, bidirectional search, bidirectional
A*, and query-graph-based batch solvers — plus a simulated fork-join
machine for scalability analysis.

Quickstart::

    import repro
    g = repro.graphs.road_graph(100, 100, seed=1)
    ans = repro.ppsp(g, 0, g.num_vertices - 1, method="bidastar")
    print(ans.distance, len(ans.path()))
"""

from . import (
    analysis,
    baselines,
    core,
    graphs,
    heuristics,
    parallel,
    perf,
    robustness,
    serve,
    verify,
)
from .api import (
    BATCH_METHODS,
    PPSP_METHODS,
    PPSPAnswer,
    batch_ppsp,
    ppsp,
    validate_query,
)
from .core import (
    AStar,
    BiDAStar,
    BiDS,
    DeltaStepping,
    EarlyTermination,
    MultiPPSP,
    QueryAnswer,
    QueryGraph,
    solve_batch,
    sssp,
)
from .graphs import Graph
from .robustness import (
    Budget,
    FaultInjector,
    InvariantAuditor,
    InvariantViolation,
    ResilientAnswer,
    SimClock,
    resilient_ppsp,
)
from .serve import (
    BreakerBoard,
    CircuitBreaker,
    PipelineResult,
    QueryService,
    ServePipeline,
    ServeQuery,
    ServiceFuture,
    ServiceResult,
    serve_batch,
)
from .verify import (
    Certificate,
    CertificateChecker,
    CheckReport,
    build_certificate,
)

__version__ = "1.21.0"

__all__ = [
    "ppsp",
    "batch_ppsp",
    "PPSPAnswer",
    "PPSP_METHODS",
    "BATCH_METHODS",
    "validate_query",
    "Graph",
    "QueryGraph",
    "QueryAnswer",
    "solve_batch",
    "sssp",
    "EarlyTermination",
    "AStar",
    "BiDS",
    "BiDAStar",
    "MultiPPSP",
    "DeltaStepping",
    "Budget",
    "SimClock",
    "InvariantAuditor",
    "InvariantViolation",
    "FaultInjector",
    "resilient_ppsp",
    "ResilientAnswer",
    "serve_batch",
    "ServePipeline",
    "PipelineResult",
    "ServeQuery",
    "QueryService",
    "ServiceFuture",
    "ServiceResult",
    "CircuitBreaker",
    "BreakerBoard",
    "Certificate",
    "CertificateChecker",
    "CheckReport",
    "build_certificate",
    "graphs",
    "core",
    "heuristics",
    "parallel",
    "baselines",
    "analysis",
    "perf",
    "robustness",
    "serve",
    "verify",
    "__version__",
]
