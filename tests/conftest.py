import random

import pytest

import springer_tworow
from springer_tworow import verify

RESULT_LINES: list[str] = []


@pytest.fixture(scope="session")
def component_steps_n8():
    """The ``diagram.component-steps`` invariant at n <= 8, run once per session."""
    verify.check_component_steps(8, random.Random(0))


@pytest.fixture(scope="module", autouse=True)
def cold_caches_after_module():
    """Empty the per-shape tables after each test module, so no later module inherits them."""
    yield
    springer_tworow.clear_caches()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)
