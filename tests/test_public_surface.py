"""The package's public surface: every export resolves, every entry
point checks its source the same way.

The per-engine version of the source check lives in
``tests/engine/test_engine_parity.py``
(``test_bad_source_raises_alike_on_every_engine``); this one covers the
single-source functions a caller can reach without the registry, and
the batched preprocessing entry points that take a source array.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.core import (
    bfs,
    bfs_levels,
    dijkstra,
    dijkstra_minhop,
    dijkstra_steps,
    hop_limited_distances,
    landmark_sssp,
    radius_stepping,
    radius_stepping_bst,
    sample_landmarks,
)
from repro.engine import RadiusBucketSchedule, RelaxationKernel, run_engine
from repro.graphs.generators import grid_2d
from repro.preprocess import (
    ball_search,
    batched_ball_search,
    batched_radii,
    batched_select,
    iter_tree_blocks,
)

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("module", MODULES)
def test_every_all_name_resolves(module):
    """A name left in ``__all__`` after its definition is gone breaks
    only ``from module import *``; catch it here instead."""
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    assert [name for name in names if not hasattr(mod, name)] == []


#: every exported single-source function, called on a 5×5 unit grid
SINGLE_SOURCE = {
    "bfs": lambda g, s: bfs(g, s),
    "bfs_levels": lambda g, s: bfs_levels(g, s),
    "dijkstra": lambda g, s: dijkstra(g, s),
    "dijkstra_minhop": lambda g, s: dijkstra_minhop(g, s),
    "dijkstra_steps": lambda g, s: dijkstra_steps(g, s),
    "hop_limited_distances": lambda g, s: hop_limited_distances(g, s, 3),
    "landmark_sssp": lambda g, s: landmark_sssp(g, s, 3),
    "radius_stepping": lambda g, s: radius_stepping(g, s, 1.0),
    "radius_stepping_bst": lambda g, s: radius_stepping_bst(g, s, 1.0),
    "run_engine": lambda g, s: run_engine(g, s, RadiusBucketSchedule(None)),
    "RelaxationKernel": lambda g, s: RelaxationKernel(g, s),
    "ball_search": lambda g, s: ball_search(g, s, 3),
}


@pytest.mark.parametrize("entry", sorted(SINGLE_SOURCE))
@pytest.mark.parametrize(
    "source, error",
    [
        (True, TypeError),
        (np.True_, TypeError),
        (2.0, TypeError),
        (-1, ValueError),
        (25, ValueError),
    ],
)
def test_bad_source_raises_alike_on_every_entry_point(entry, source, error):
    """A bool must never solve from vertex 1 or act as an all-true mask,
    a float must not raise a bare NumPy IndexError, and an id outside
    ``[0, n)`` must not wrap: every entry point runs ``check_vertex``."""
    g = grid_2d(5, 5)
    with pytest.raises(error, match="source"):
        SINGLE_SOURCE[entry](g, source)


#: the batched preprocessing entry points, which take a source array
BATCHED = {
    "batched_ball_search": lambda g, src: batched_ball_search(g, src, 3),
    "batched_radii": lambda g, src: batched_radii(g, src, (3,)),
    "batched_select": lambda g, src: batched_select(g, src, 3, 2, "dp"),
    "iter_tree_blocks": lambda g, src: list(iter_tree_blocks(g, src, 3)),
}
#: ... and the landmark sampler, given the array's one source
SOURCE_ARRAYS = {
    **BATCHED,
    "sample_landmarks": lambda g, src: sample_landmarks(g.n, 3, src[0]),
}


@pytest.mark.parametrize("entry", sorted(SOURCE_ARRAYS))
@pytest.mark.parametrize(
    "source, error",
    [
        (True, TypeError),
        (np.True_, TypeError),
        (2.0, TypeError),
        (2.7, TypeError),
        (-1, ValueError),
        (25, ValueError),
    ],
)
def test_bad_source_raises_on_source_arrays(entry, source, error):
    """A cast would search from ``int(2.7) == 2`` or ``int(True) == 1``:
    a bool or float source array raises ``TypeError``, as one source does."""
    g = grid_2d(5, 5)
    with pytest.raises(error, match="source"):
        SOURCE_ARRAYS[entry](g, np.array([source]))


@pytest.mark.parametrize("entry", sorted(BATCHED))
def test_empty_source_array_stays_legal(entry):
    """``np.asarray([])`` is float64; an empty batch is still no error."""
    BATCHED[entry](grid_2d(5, 5), [])
