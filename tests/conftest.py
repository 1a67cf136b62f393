"""Suite-wide pytest/hypothesis configuration.

Hypothesis profiles keep the property tests' budget predictable on a
single-core box:

* ``repro`` (default): moderate example counts, no deadline (solver
  properties legitimately vary in runtime with the generated graph).
* ``thorough``: 10x examples for release validation —
  ``HYPOTHESIS_PROFILE=thorough pytest tests/``.

The ``short_switch_interval`` fixture runs a threaded test with the
interpreter switching threads every 10 µs instead of every 5 ms.
"""

from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=250,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


@pytest.fixture
def short_switch_interval():
    """Switch threads every 10 µs for the test, so hand-offs between
    threads land inside short critical sections, not only between them."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(old)
