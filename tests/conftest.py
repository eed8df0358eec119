import sys

import numpy as np
import pytest


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the per-criterion verdict lines outside capture, so a plain
    ``pytest -v`` run records them even for passing criteria."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
