"""SSSP solvers: Radius-Stepping, its treap reference, and the oracles.

The ∆-stepping and Bellman–Ford baselines are step schedules of the
unified engine (the ``delta``, ``delta-star`` and ``bellman-ford``
engines of :mod:`repro.engine.registry`), and unit-weight graphs run
the same radius schedule as any other; the modules here are the
Radius-Stepping entry points, the sequential Dijkstra oracle, BFS and
the landmark (hop-limited) baseline of Table 1.
"""

from ..engine.schedules import as_radii
from .bfs import bfs, bfs_levels, gather_frontier_arcs
from .dijkstra import dijkstra, dijkstra_minhop, dijkstra_steps
from .landmark import hop_limited_distances, landmark_sssp, sample_landmarks
from .radius_stepping import radius_stepping
from .radius_stepping_bst import radius_stepping_bst
from .result import SsspResult, StepTrace
from .solver import PreprocessedSSSP

__all__ = [
    "PreprocessedSSSP",
    "SsspResult",
    "StepTrace",
    "as_radii",
    "bfs",
    "bfs_levels",
    "dijkstra",
    "dijkstra_minhop",
    "dijkstra_steps",
    "gather_frontier_arcs",
    "hop_limited_distances",
    "landmark_sssp",
    "radius_stepping",
    "sample_landmarks",
    "radius_stepping_bst",
]
