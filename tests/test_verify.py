"""Every invariant suite asserts something at the least depth ``run_all`` accepts.

A suite whose loops are empty at a depth reports PASS while checking
nothing.  Each suite runs at ``verify.MIN_DEPTH`` under ``sys.settrace``,
which records the lines run in the suite's own code (nested
comprehensions and functions included); one of them must belong to one of
its own ``assert`` statements.
"""
import ast
import inspect
import random
import sys
import textwrap

import pytest

from springer_tworow import verify


def assert_lines(fn) -> set[int]:
    """The line numbers of fn's own assert statements, continuation lines included."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    return {first + line - 1 for node in ast.walk(tree) if isinstance(node, ast.Assert)
            for line in range(node.lineno, node.end_lineno + 1)}


def own_code(fn) -> set:
    """fn's code object and every code object nested in it."""
    codes, todo = set(), [fn.__code__]
    while todo:
        code = todo.pop()
        codes.add(code)
        todo += [c for c in code.co_consts if inspect.iscode(c)]
    return codes


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.name)
def test_every_suite_runs_one_of_its_asserts_at_the_least_depth(check):
    codes, ran = own_code(check.fn), set()

    def trace(frame, event, arg):
        if frame.f_code not in codes:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        check.fn(verify.MIN_DEPTH, random.Random(0))
    finally:
        sys.settrace(previous)
    assert ran & assert_lines(check.fn), f"{check.name} ran none of its asserts"
