"""Process-based parallel substrate (fork pool + deterministic chunking)."""

from .chunking import resolve_jobs, split_blocks, split_evenly
from .pool import parallel_map

__all__ = [
    "parallel_map",
    "resolve_jobs",
    "split_blocks",
    "split_evenly",
]
