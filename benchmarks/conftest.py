"""Shared fixtures for the benchmark harness.

The paper benches regenerate one of the paper's tables or figures at the
``tiny`` scale preset (n ≈ 1k per graph) and print the rendered
paper-style output; ``bench_scaling.py`` runs the n-sweep and every perf
gate and writes ``BENCH_scaling.json``.  Run them all with

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q -s --benchmark-disable

(``bench_*.py`` does not match pytest's default ``test_*.py`` file
pattern, so the files are named explicitly; ``--benchmark-only`` shows
the paper benches' timings instead).  The ``--scale large`` CLI
(``python -m repro.experiments``) produces the paper reports closer to
paper scale.
"""

from __future__ import annotations

import pytest

from repro.experiments import get_scale, make_all_datasets


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_artifact(name): the table/figure this bench regenerates"
    )


@pytest.fixture(scope="session")
def tiny_scale():
    return get_scale("tiny")


@pytest.fixture(scope="session")
def datasets(tiny_scale):
    """All six evaluation graphs at tiny scale, built once per session."""
    return make_all_datasets(tiny_scale)


@pytest.fixture(scope="session")
def report_sink():
    """Collects rendered reports; printed at the end of the session."""
    reports: list[tuple[str, str]] = []
    yield reports
    if reports:
        print("\n\n" + "=" * 72)
        print("Regenerated paper artifacts (tiny scale)")
        print("=" * 72)
        for title, body in reports:
            print(f"\n--- {title} ---")
            print(body)
