"""repro — Parallel Shortest-Paths Using Radius Stepping (SPAA 2016).

A complete reproduction of Blelloch, Gu, Sun & Tangwongsan's
Radius-Stepping: the solver (two engines), the (k,rho)-graph
preprocessing with greedy/DP shortcut heuristics, the baselines
(∆-stepping, Bellman–Ford and batched Dijkstra run as step schedules of
the same engine loop: ``solve_with_engine("delta" | "bellman-ford" |
"dijkstra", ...)``), the simulated-PRAM cost substrate, and drivers
regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import generators, random_integer_weights
    from repro import build_kr_graph, radius_stepping, dijkstra

    g = random_integer_weights(generators.grid_2d(60, 60), seed=0)
    pre = build_kr_graph(g, k=2, rho=32, heuristic="dp")
    res = radius_stepping(pre.graph, 0, pre.radii)
    assert (res.dist == dijkstra(g, 0).dist).all()
"""

from .graphs import (
    CSRGraph,
    GraphValidationError,
    add_shortcuts,
    from_arc_arrays,
    from_edge_list,
    generators,
    is_connected,
    largest_connected_component,
    normalize_weights,
    random_integer_weights,
    read_edge_list,
    unit_weights,
    validate_graph,
    write_edge_list,
)
from .core import (
    SsspResult,
    StepTrace,
    bfs,
    dijkstra,
    dijkstra_minhop,
    radius_stepping,
    radius_stepping_bst,
)
from .core.solver import PreprocessedSSSP
from .engine import (
    RelaxationKernel,
    StepSchedule,
    available_engines,
    get_engine,
    register_engine,
    run_engine,
)
from .preprocess import (
    BallSearchResult,
    PreprocessResult,
    ball_search,
    build_kr_graph,
    compute_radii,
    compute_radii_sweep,
)
from .pram import Ledger
from .analysis import max_steps_bound, max_substeps_bound
from .serve import (
    QueryPlanner,
    RoutingHTTPServer,
    RoutingService,
    load_artifact,
    load_solver,
    save_artifact,
)

__version__ = "1.0.0"

__all__ = [
    "BallSearchResult",
    "CSRGraph",
    "GraphValidationError",
    "Ledger",
    "PreprocessedSSSP",
    "PreprocessResult",
    "QueryPlanner",
    "RelaxationKernel",
    "RoutingHTTPServer",
    "RoutingService",
    "SsspResult",
    "StepSchedule",
    "StepTrace",
    "__version__",
    "add_shortcuts",
    "available_engines",
    "ball_search",
    "bfs",
    "build_kr_graph",
    "compute_radii",
    "compute_radii_sweep",
    "dijkstra",
    "dijkstra_minhop",
    "from_arc_arrays",
    "from_edge_list",
    "generators",
    "get_engine",
    "is_connected",
    "largest_connected_component",
    "load_artifact",
    "load_solver",
    "max_steps_bound",
    "max_substeps_bound",
    "normalize_weights",
    "radius_stepping",
    "radius_stepping_bst",
    "random_integer_weights",
    "read_edge_list",
    "register_engine",
    "run_engine",
    "save_artifact",
    "unit_weights",
    "validate_graph",
    "write_edge_list",
]
