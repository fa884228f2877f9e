"""What the CLI does as a process: pipes, a closed stdout, files and paths.

The bytes, exit code and stderr of each call are recorded once, in
``tests/transcript.txt``; the caps' refusals before any work are checked
at each library entry point in ``tests/test_caps.py``.  What is left here
needs a real process, a pipe, a file or the environment.
"""
import os
import subprocess
import sys
from pathlib import Path

from springer_tworow import cli
from springer_tworow.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env(**extra):
    """The caller's environment, with this checkout's source first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_skein_command_does_not_calibrate():
    """``springer skein`` evaluates under the fixed convention and never searches."""
    probe = (
        "import sys\n"
        "from springer_tworow import cli, skein\n"
        "def refuse(n_max):\n"
        "    raise AssertionError('calibrate called')\n"
        "skein.calibrate = refuse\n"
        "sys.exit(cli.main(['skein', '--sigma', '(1 2 3)', '--matching', '3: u1-2 r3']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(PYTHONIOENCODING="utf-8"), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-1·(3: r1 u2-3)\n"


def test_render_out_writes_the_bytes_stdout_would_get(tmp_path, capsys):
    path = tmp_path / "out.txt"
    for argv in (("render", "7: r1 u2-3 d4-7 u5-6"), ("render", "2: u1-2", "--format", "svg")):
        code, shown, _ = run(capsys, *argv)
        assert code == 0 and shown, argv
        assert run(capsys, *argv, "-o", str(path)) == (0, "", ""), argv
        assert path.read_text(encoding="utf-8") == shown, argv


def test_unwritable_paths_are_error_exits(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    under = str(blocker / "x")
    for argv in (("render", "2: u1-2", "-o", under),
                 ("matrix", "-n", "2", "-k", "1", "-m", "1", "--sigma", "s1",
                  "--cache-dir", under)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and str(blocker) in err, argv


def _springer_argv(*argv):
    return [sys.executable, "-m", "springer_tworow.cli", *argv]


def test_a_reader_closing_early_ends_the_command_quietly():
    # 4,862 matchings fill about 280 kB, far past a pipe's buffer, so the
    # command is still writing when the reader stops after one line.
    proc = subprocess.Popen(_springer_argv("enumerate", "-n", "18", "-k", "9"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE_EXIT == 141
    assert first == b"18: u1-2 u3-4 u5-6 u7-8 u9-10 u11-12 u13-14 u15-16 u17-18\n"
    assert err == b""


def test_a_closed_stdout_is_no_error():
    proc = subprocess.run(_springer_argv("enumerate", "-n", "4", "-k", "1"),
                          stderr=subprocess.PIPE, env=_env(), timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")
