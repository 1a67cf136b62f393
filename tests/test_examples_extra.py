"""Smoke tests for examples outside the five-pipeline set: the Table-1
tradeoff sweep (landmark baseline surface), the engine-plugin demo
(the repro.engine extension surface), and the HTTP serving walkthrough
(the repro.serve.http network surface)."""

import numpy as np

from tests.test_examples import load_example


def test_engine_plugins(capsys):
    import repro.engine.registry as reg
    from repro.engine import available_engines, solve_with_engine
    from repro.graphs.generators import grid_2d

    builtins = available_engines()
    assert len(builtins) == 8 and "geometric" not in builtins
    mod = load_example("engine_plugins")
    try:
        mod.main(n=150, rho=8)
        out = capsys.readouterr().out
        assert "match Dijkstra" in out
        assert "engine=geometric" in out
        assert "engine=bucket" in out
        # the example registers a real, reusable engine
        res = solve_with_engine("geometric", grid_2d(5, 5), 0, None)
        assert res.algorithm == "geometric-stepping"
        assert np.allclose(res.dist.max(), 8.0)
    finally:
        reg._REGISTRY.pop("geometric", None)
    assert available_engines() == builtins


def test_http_routing_service(capsys):
    mod = load_example("http_routing_service")
    mod.main(n=250, rho=10, threads=4)
    out = capsys.readouterr().out
    assert "HTTP server listening" in out
    assert "concurrent clients: zero errors" in out
    assert "error contract" in out
    assert "graceful shutdown" in out
    assert mod.__doc__ and callable(mod.main)


def test_baseline_tradeoffs(capsys):
    load_example("baseline_tradeoffs").main(
        n=200, t_sweep=(3, 6), rho_sweep=(6, 12)
    )
    out = capsys.readouterr().out
    assert "landmark SSSP" in out
    assert "radius-stepping" in out
    assert "Table 1" in out
