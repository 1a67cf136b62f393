"""Preprocessing (Section 4): balls, radii, and (k,ρ)-shortcutting.

Ball searches — the n truncated Dijkstras of Lemma 4.2 that everything
here is built on — run on the slot-based vectorized engine
(:mod:`repro.preprocess.batched`), which grows whole blocks of balls
with one flat CSR gather + scatter-min per round.  Shortcut *selection*
(§4.2's greedy/DP/full heuristics) runs on the forest-level engine
(:mod:`~repro.preprocess.select_batched`), over whole
:class:`TreeBlock` slot blocks per NumPy pass.  ``n_jobs`` fans source
chunks of either over the fork pool.

The scalar heap reference (:mod:`repro.preprocess.scalar`: one
:func:`ball_search` per source and the per-tree walkers of
:mod:`~repro.preprocess.dp`, :mod:`~repro.preprocess.greedy` and
:mod:`~repro.preprocess.shortcut_one`) is what the parity suites check
the engines against: settle orders, distances, min-hop trees, ``r_ρ``
arrays and shortcut selections are bit-identical.
"""

from .ball import BallSearchResult, ball_search, sort_adjacency_by_weight
from .batched import (
    batched_ball_search,
    batched_ball_trees,
    batched_radii,
    batched_tree_block,
    default_slot_block,
    iter_tree_blocks,
)
from .count import ShortcutCounts, count_shortcuts_sweep, sample_sources
from .dp import dp_count, dp_select, dp_table
from .exact import (
    KrReport,
    k_radii,
    k_radius,
    rho_nearest_distance,
    verify_kr_graph,
)
from .greedy import greedy_count, greedy_depth_mask, greedy_select
from .pipeline import (
    PreprocessResult,
    ShardedPreprocessResult,
    build_kr_graph,
    build_sharded_kr_graph,
)
from .radii import compute_radii, compute_radii_sweep
from .scalar import (
    HEURISTICS,
    scalar_ball_trees,
    scalar_radii,
    scalar_select,
    scalar_tree_block,
)
from .select_batched import (
    batched_select,
    forest_counts,
    forest_dp_counts,
    forest_dp_select,
    forest_dp_tables,
    forest_select,
    forest_select_positions,
    forest_shortcuts,
)
from .shortcut_one import full_count, full_depth_mask, full_select
from .tree import BallTree, TreeBlock, block_from_trees, build_ball_tree

__all__ = [
    "BallSearchResult",
    "BallTree",
    "HEURISTICS",
    "KrReport",
    "PreprocessResult",
    "ShardedPreprocessResult",
    "ShortcutCounts",
    "TreeBlock",
    "ball_search",
    "batched_ball_search",
    "batched_ball_trees",
    "batched_radii",
    "batched_select",
    "batched_tree_block",
    "block_from_trees",
    "build_ball_tree",
    "build_kr_graph",
    "build_sharded_kr_graph",
    "compute_radii",
    "compute_radii_sweep",
    "count_shortcuts_sweep",
    "default_slot_block",
    "dp_count",
    "dp_select",
    "dp_table",
    "forest_counts",
    "forest_dp_counts",
    "forest_dp_select",
    "forest_dp_tables",
    "forest_select",
    "forest_select_positions",
    "forest_shortcuts",
    "full_count",
    "full_depth_mask",
    "full_select",
    "greedy_count",
    "greedy_depth_mask",
    "greedy_select",
    "iter_tree_blocks",
    "k_radii",
    "k_radius",
    "rho_nearest_distance",
    "sample_sources",
    "scalar_ball_trees",
    "scalar_radii",
    "scalar_select",
    "scalar_tree_block",
    "sort_adjacency_by_weight",
    "verify_kr_graph",
]
