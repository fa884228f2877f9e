"""Replay ``tests/transcript.txt``: every recorded ``springer`` call gives its recorded bytes.

The transcript is a list of blocks separated by blank lines, one per call::

    # an optional comment
    ~ fault NAME                (optional: run with the stand-in FAULTS[NAME] planted)
    $ springer ARGV...          (shell-quoted)
    exit CODE
    | a line of stdout          (or ``stdout sha256 HEX, N bytes`` when stdout is long)
    ! a line of stderr

A ``\\ no newline`` line follows output that does not end in a newline.
``{tmp}`` in an argument is one directory shared by the whole replay, so a
``matrix --cached`` call can miss and the next one hit.  Correct code never
exits 3, so the exit-3 paths run with a planted fault.  Each call runs in
process through ``cli.main`` with ``COLUMNS=80`` for argparse, so the whole
replay takes seconds; exit 141 needs a closed pipe and is covered by
``test_cli.py``.  A change to any output byte of the CLI shows up here as a
transcript edit.

``PYTHONPATH=src python tests/test_transcript.py`` rewrites the file: it
keeps every header (comment, fault and ``$`` lines) and records the result
of each call with the code in the checkout.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from springer_tworow import cli, homology

TRANSCRIPT = Path(__file__).resolve().parent / "transcript.txt"
LONG = 1000  # bytes of stdout past which only its sha256 is recorded
PROMPT = "$ springer"


def _top_rank_plus_one(n: int, k: int, real=homology.presentation_betti) -> list[int]:
    ranks = real(n, k)
    return ranks[:-1] + [ranks[-1] + 1]


#: Planted faults, by name: (module, attribute, stand-in).
FAULTS = {"cokernel-top-rank-plus-one": (homology, "presentation_betti", _top_rank_plus_one)}


def _argv(header: list[str]) -> list[str]:
    return shlex.split(header[-1][len(PROMPT):])


def _blocks() -> list[tuple[list[str], str]]:
    """(header lines, recorded text) of each block of the transcript."""
    out = []
    for text in TRANSCRIPT.read_text(encoding="utf-8").split("\n\n"):
        lines = text.strip("\n").split("\n")
        end = next(i for i, line in enumerate(lines) if line.startswith(PROMPT)) + 1
        out.append((lines[:end], "\n".join(lines)))
    return out


def _quoted(mark: str, text: str) -> list[str]:
    lines = [mark + (" " + line if line else "") for line in text.split("\n")]
    if text.endswith("\n"):
        return lines[:-1]
    return lines + ["\\ no newline"] if text else []


def replay(header: list[str], tmp: str) -> str:
    """The block for HEADER as the code in this checkout answers it."""
    argv = [a.replace("{tmp}", tmp) for a in _argv(header)]
    faults = [FAULTS[line.split()[-1]] for line in header if line.startswith("~ fault ")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        for module, name, stand_in in faults:
            stack.enter_context(mock.patch.object(module, name, stand_in))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse reports a usage error or -h by exiting
            code = exc.code
    stdout = out.getvalue().encode("utf-8")
    lines = [*header, f"exit {code}"]
    if len(stdout) > LONG:
        lines.append(f"stdout sha256 {hashlib.sha256(stdout).hexdigest()}, {len(stdout)} bytes")
    else:
        lines += _quoted("|", out.getvalue())
    return "\n".join(lines + _quoted("!", err.getvalue()))


BLOCKS = _blocks()


@pytest.fixture(scope="module")
def shared_tmp(tmp_path_factory):
    return str(tmp_path_factory.mktemp("transcript"))


@pytest.mark.parametrize("header, recorded", BLOCKS,
                         ids=[shlex.join(_argv(header)) for header, _ in BLOCKS])
def test_each_call_gives_its_recorded_bytes(header, recorded, shared_tmp):
    assert replay(header, shared_tmp) == recorded


def test_the_transcript_covers_every_subcommand_and_exit_code():
    assert {argv[0] for argv in map(_argv, (header for header, _ in BLOCKS)) if argv} \
        >= set(cli.COMMANDS)
    codes = {recorded.split("\n")[len(header)] for header, recorded in BLOCKS}
    assert codes == {"exit 0", "exit 1", "exit 2", "exit 3"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = "\n\n".join(replay(header, tmp) for header, _ in BLOCKS)
    TRANSCRIPT.write_text(text + "\n", encoding="utf-8")
