import random

import pytest

from springer_tworow import verify

RESULT_LINES: list[str] = []


@pytest.fixture(scope="session")
def component_steps_n8():
    """The ``diagram.component-steps`` invariant at n <= 8, run once per session."""
    verify.check_component_steps(8, random.Random(0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.write_line(line)
