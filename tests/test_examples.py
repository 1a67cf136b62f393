"""Smoke tests: every example runs end to end at a reduced size.

Each example's ``main()`` takes size parameters precisely so the suite
can execute the real code path (not a mock) in seconds.  Output goes to
stdout; correctness inside the examples is enforced by their own asserts
(e.g. road_routing asserts routing tables match Dijkstra exactly).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_quickstart(capsys):
    load_example("quickstart").main(side=12, rho=10)
    out = capsys.readouterr().out
    assert "distances match Dijkstra" in out
    assert "radius-stepping:" in out


def test_road_routing(capsys):
    load_example("road_routing").main(n=250, depots=3, rho=12)
    out = capsys.readouterr().out
    assert "mean step reduction" in out


def test_web_frontier(capsys):
    load_example("web_frontier").main(n=220, attach=3, rhos=(4, 8, 16))
    out = capsys.readouterr().out
    assert "BFS baseline" in out
    assert "greedy/dp" in out


def test_pram_cost_model(capsys):
    load_example("pram_cost_model").main(side=10, rhos=(1, 4, 16))
    out = capsys.readouterr().out
    assert "simulated speedup" in out
    assert "Theorem 1.1 measured" in out


def test_parallel_preprocessing(capsys):
    load_example("parallel_preprocessing").main(n=200, rho=8)
    out = capsys.readouterr().out
    assert "bit-identical" in out


def test_routing_service(capsys):
    load_example("routing_service").main(n=300, rho=10)
    out = capsys.readouterr().out
    assert "warm start from artifact" in out
    assert "cache hits" in out
    assert "every row exact" in out


def test_sharded_service(capsys):
    load_example("sharded_service").main(n=300, n_shards=3, rho=10)
    out = capsys.readouterr().out
    assert "bit-identical to unsharded" in out
    assert "cross-shard route" in out
    assert "warm start from bundle" in out


def test_remote_shard_cluster(capsys):
    load_example("remote_shard_cluster").main(n=300, n_shards=3, rho=10)
    out = capsys.readouterr().out
    assert "bit-identical to in-process" in out
    assert "503 ShardUnavailable" in out
    assert "degraded, not down" in out


def test_reordering(capsys):
    load_example("reordering").main(n=250, rho=10)
    out = capsys.readouterr().out
    assert "bit-identical to the unreordered service" in out
    assert "warm start keeps the layout" in out


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "road_routing",
        "web_frontier",
        "pram_cost_model",
        "parallel_preprocessing",
        "routing_service",
        "sharded_service",
        "remote_shard_cluster",
        "reordering",
    ],
)
def test_examples_have_docstrings_and_main(name):
    mod = load_example(name)
    assert mod.__doc__ and len(mod.__doc__) > 100
    assert callable(mod.main)
