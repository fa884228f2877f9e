"""Line reach: the executable lines inside functions that no check runs.

Runs tier-1 (``pytest tests perfbench``) and ``springer verify --all -nmax
40`` at seeds 0 and 1, all in this process under ``sys.settrace``, and
prints, for each module of ``springer_tworow``, the lines inside functions
that never ran.  Each module's function lines are read from its source
before the traced run, and the report refuses (exit status 1, naming the
file) if a module's source changed while the probe ran.  A line that
runs only in a child process (the CLI, start-up and transcript tests
start one) counts as never run.  The tracer slows the timed acceptance
criteria past their bounds, so a test failure here is printed but does
not change the report; run those criteria untraced.  Standard library
only; pytest does not collect this file.

    PYTHONPATH=src python tests/reach.py [extra pytest arguments]
"""
from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "springer_tworow"
CO_NEWLOCALS = 0x2  # set on the code of functions, lambdas and comprehensions, not on class bodies


def function_lines(path: Path, source: str) -> set[int]:
    """The lines of every function's code in this module, nested functions included."""
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & CO_NEWLOCALS:
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(pytest_args: list[str]) -> int:
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE)
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    lines_of = {path: function_lines(path, source) for path, source in sources.items()}

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = ran[frame.f_code.co_filename]
        lines.add(frame.f_lineno)

        def line(frame, event, arg):
            lines.add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        import pytest
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                              str(ROOT / "tests"), str(ROOT / "perfbench"), *pytest_args])
        from springer_tworow import cli
        verified = [cli.main(["verify", "--all", "-nmax", "40", "--seed", seed])
                    for seed in ("0", "1")]
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print(f"\npytest exit status {int(status)}; verify exit statuses {verified}")
    changed = [path.name for path, source in sources.items()
               if not path.exists() or path.read_text() != source]
    if changed:
        print(f"refused: {', '.join(changed)} changed while the probe ran; run it again",
              file=sys.stderr)
        return 1
    total = missed = 0
    for path, lines in lines_of.items():
        never = sorted(lines - ran[str(path)])
        total, missed = total + len(lines), missed + len(never)
        print(f"{path.name}: {len(never)} of {len(lines)} lines never run"
              + (f": {', '.join(map(str, never))}" if never else ""))
    print(f"total: {missed} of {total} executable lines inside functions never run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
