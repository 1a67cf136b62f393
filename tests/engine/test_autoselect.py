"""Calibration-race tests: pick_engine / race_engines semantics."""

import numpy as np
import pytest

from repro.engine.autoselect import (
    DEFAULT_CANDIDATES,
    pick_engine,
    race_engines,
    sample_sources,
)
from repro.engine.registry import available_engines
from repro.graphs.generators import grid_2d

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(120, 300, seed=5)


@pytest.fixture
def inapplicable():
    """A registered engine that raises ``ValueError`` on every graph —
    the documented "not applicable" signal a plugin with a precondition
    gives."""
    import repro.engine.registry as registry

    def solve(graph, source, radii, **kwargs):
        raise ValueError("test engine: not applicable to this graph")

    name = "test-inapplicable"
    registry.register_engine(name, solve, overwrite=True)
    yield name
    registry._REGISTRY.pop(name, None)


class TestSampleSources:
    def test_distinct_and_in_range(self, graph):
        s = sample_sources(graph, 5, seed=1)
        assert len(s) == len(set(s.tolist())) == 5
        assert ((0 <= s) & (s < graph.n)).all()

    def test_deterministic(self, graph):
        assert np.array_equal(
            sample_sources(graph, 4, seed=2), sample_sources(graph, 4, seed=2)
        )

    def test_clamped_to_n(self):
        g = random_connected_graph(6, 8, seed=0)
        assert len(sample_sources(g, 100, seed=0)) == 6


class TestRaceEngines:
    def test_default_candidates_all_registered(self):
        registered = set(available_engines())
        assert set(DEFAULT_CANDIDATES) <= registered
        assert "vectorized" in DEFAULT_CANDIDATES  # the old fixed default

    def test_times_every_applicable_engine(self, graph):
        t = race_engines(graph, samples=1, budget=5.0)
        assert set(t) == set(DEFAULT_CANDIDATES)
        assert all(v > 0 for v in t.values())

    def test_inapplicable_engines_dropped(self, graph, inapplicable):
        # an engine raising ValueError is dropped, not fatal
        t = race_engines(
            graph, engines=("dijkstra", inapplicable), samples=1, budget=5.0
        )
        assert set(t) == {"dijkstra"}

    def test_all_inapplicable_yields_empty(self, graph, inapplicable):
        assert race_engines(graph, engines=(inapplicable,), samples=1) == {}

    def test_broken_engine_propagates(self, graph, monkeypatch):
        """Only ``ValueError`` means "inapplicable": a schedule that
        crashes must fail the race, not quietly lose it."""
        import repro.engine.autoselect as autoselect

        real = autoselect.solve_with_engine

        def solve(name, *args, **kwargs):
            if name == "delta":
                raise RuntimeError("delta schedule made no progress (empty step)")
            return real(name, *args, **kwargs)

        monkeypatch.setattr(autoselect, "solve_with_engine", solve)
        with pytest.raises(RuntimeError, match="no progress"):
            race_engines(graph, engines=("dijkstra", "delta"), samples=1)

    def test_empty_candidate_tuple_rejected(self, graph):
        with pytest.raises(ValueError, match="no candidate"):
            race_engines(graph, engines=())


class TestPickEngine:
    def test_returns_registered_candidate(self, graph):
        choice = pick_engine(graph, budget=0.5, samples=2)
        assert choice in DEFAULT_CANDIDATES

    def test_respects_explicit_candidates(self, graph):
        choice = pick_engine(
            graph, engines=("dijkstra", "delta"), budget=0.5, samples=1
        )
        assert choice in ("dijkstra", "delta")

    def test_race_completes_on_unit_graphs(self):
        # On a unit-weight grid every candidate works; just assert the
        # race completes and yields a valid engine either way.
        g = grid_2d(8, 8)
        choice = pick_engine(
            g, engines=("vectorized", "dijkstra"), budget=0.5, samples=1
        )
        assert choice in ("vectorized", "dijkstra")

    def test_no_survivors_raises(self, graph, inapplicable):
        with pytest.raises(ValueError, match="no candidate engine"):
            pick_engine(graph, engines=(inapplicable,), samples=1)
