"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at the
``tiny`` scale preset (n ≈ 1k per graph) so the whole suite completes in
minutes on one core, and prints the rendered paper-style output — run

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py --benchmark-only -s

to see the regenerated tables alongside the timings (``bench_*.py``
does not match pytest's default ``test_*.py`` file pattern, so the
files are named explicitly).  The
``--scale large`` CLI (``python -m repro.experiments``) produces the same
reports closer to paper scale.
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
