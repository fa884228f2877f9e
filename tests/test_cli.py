import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from springer_tworow import cli, diagrams, homology, matchings, skein
from springer_tworow.cli import main, parse_class
from springer_tworow.errors import DomainError
from springer_tworow.homology import HomClass, psi_minus_rows
from springer_tworow.matchings import parse_matching


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "4", "-k", "1")
    assert code == 0
    assert out.splitlines() == ["4: u1-2 r3 r4", "4: r1 u2-3 r4", "4: r1 r2 u3-4"]


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "-n", "4", "-k", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"ranks": [1, 3]}
    code, out, _ = run(capsys, "betti", "-n", "5", "-k", "2", "--method", "both")
    assert code == 0 and out.strip() == "1 4 5"


def test_betti_both_exits_3_on_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli.homology, "presentation_betti", lambda n, k: [1, 2])
    code, out, err = run(capsys, "betti", "-n", "4", "-k", "1", "--method", "both")
    assert (code, out) == (3, "")
    assert err == "mismatch: standard=[1, 3] cokernel=[1, 2]\n"


def test_act_command(capsys):
    code, out, _ = run(
        capsys, "act", "--sigma", "(2 3)", "--class", "4: u1-2 u3-4"
    )
    assert code == 0
    assert out.strip() == "1·(4: u1-2 u3-4) - 1·(4: u1-4 u2-3)"


def test_act_refuses_a_repeated_cycle_entry(capsys):
    code, out, err = run(capsys, "act", "--sigma", "(1 1)", "--class", "2: u1-2")
    assert (code, out) == (2, "")
    assert err == "error: cycle entry 1 appears twice in [(1, 1)]\n"


def test_parse_class_sum_syntax():
    x = parse_class("1·(4: u1-2 u3-4) - 1·(4: u1-4 u2-3)")
    assert len(x.terms) == 2
    y = parse_class("2*(4: d1-2 u3-4)")
    assert y == HomClass.of(parse_matching("4: d1-2 u3-4"), 2)


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "validate", "4: u1-3 r2 r4")
    assert code == 2 and "ray 2" in err


def test_betti_negative_k_is_a_domain_error(capsys):
    code, out, err = run(capsys, "betti", "-n", "3", "-k", "-1")
    assert code == 2 and out == ""
    assert err == "error: no matchings of type (4,-1) on 3 vertices\n"


@pytest.mark.parametrize("argv, err", [
    (("character", "-n", "3", "-k", "-1"), "error: no matchings of type (4,-1) on 3 vertices\n"),
    (("character", "-n", "-2", "-k", "0"), "error: no matchings of type (-2,0) on -2 vertices\n"),
    (("chart", "-n", "3", "-k", "-1"), "error: no matchings of type (4,-1) on 3 vertices\n"),
])
def test_character_and_chart_refuse_impossible_types(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_enumerate_refuses_past_its_cap_without_enumerating(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the enumeration walk built a matching")

    monkeypatch.setattr(matchings, "Matching", refuse)
    code, out, err = run(capsys, "enumerate", "-n", "40", "-k", "20")
    assert (code, out) == (2, "")
    assert err == ("error: enumerate -n 40 -k 20 would list 6564120420 matchings, "
                   f"more than the cap of {matchings.ENUMERATE_CAP}\n")


@pytest.mark.parametrize("argv, width", [
    (("betti", "-n", "30", "-k", "15", "--method", "both"), 9694845 * 2**15),
    (("betti", "-n", "30", "-k", "15", "--method", "cokernel"), 9694845 * 2**15),
    (("relations", "-n", "30", "-k", "15"), 9694845 * 2**15),
    (("relations", "-n", "20", "-k", "10", "-m", "5"), 16796 * 252),
    (("betti", "-n", "15", "-k", "7", "--method", "both"), 1430 * 2**7),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value))
def test_homology_commands_refuse_past_the_column_cap_without_enumerating(
        capsys, monkeypatch, argv, width):
    def refuse(*args, **kwargs):
        raise AssertionError("the columns or rows were assembled")

    for name in ("enumerate_matchings", "all_dotted_matchings", "_relation_rows", "_circle_bits"):
        monkeypatch.setattr(homology, name, refuse)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: {argv[0]} -n {argv[2]} -k {argv[4]} would assemble {width} "
                   f"dotted-matching columns, more than the cap of {homology.COLUMN_CAP}\n")


@pytest.mark.parametrize("argv, reason", [
    (("character", "-n", "30", "-k", "15"), "enumerate 9694845 matchings"),
    (("character", "-n", "18", "-k", "9"), "factor 48620 tabloid rows"),
    (("chart", "-n", "30", "-k", "15"), "enumerate 9694845 matchings"),
    (("chart", "-n", "17", "-k", "8", "--full"), "factor 24310 tabloid rows"),
    (("matrix", "-n", "40", "-k", "20", "-m", "3", "--sigma", "s1"),
     "enumerate 6564120420 matchings"),
    (("matrix", "-n", "20", "-k", "10", "-m", "10", "--sigma", "s1", "--cached"),
     "factor 184756 tabloid rows"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_tabloid_commands_refuse_past_their_caps_without_enumerating(
        capsys, monkeypatch, tmp_path, argv, reason):
    from springer_tworow import action, cache

    def refuse(*args, **kwargs):
        raise AssertionError("the tabloid route started work")

    for name in ("_solver", "_certificate", "_solved_columns", "standard_dotted_matchings"):
        monkeypatch.setattr(action, name, refuse)
    monkeypatch.setattr(cache.RepMatrixCache, "load", refuse)
    monkeypatch.setattr(cli, "standard_dotted_matchings", refuse)
    monkeypatch.chdir(tmp_path)
    cap = matchings.ENUMERATE_CAP if "enumerate" in reason else matchings.TABLOID_CAP
    assert run(capsys, *argv) == (2, "", f"error: {argv[0]} -n {argv[2]} -k {argv[4]} would "
                                         f"{reason}, more than the cap of {cap}\n")


ALL_DOTTED_30 = "30: " + " ".join(f"d{i}-{i + 1}" for i in range(1, 30, 2))
NESTED_30 = "30: u1-4 d2-3 " + " ".join(f"u{i}-{i + 1}" for i in range(5, 30, 2))


@pytest.mark.parametrize("argv, reason", [
    (("act", "--sigma", "(1 2)", "--class", ALL_DOTTED_30),
     "act -n 30 -k 15 would enumerate 9694845 matchings, more than the cap of "
     f"{matchings.ENUMERATE_CAP}"),
    (("reduce", NESTED_30),
     f"reduce -n 30 -k 15 would assemble {9694845 * 15} dotted-matching columns, "
     f"more than the cap of {homology.COLUMN_CAP}"),
], ids=["act", "reduce"])
def test_act_and_reduce_refuse_past_their_caps_without_reducing(capsys, monkeypatch, argv, reason):
    from springer_tworow import action

    def refuse(*args, **kwargs):
        raise AssertionError("the class was reduced or acted on")

    monkeypatch.setattr(action, "_RowMap", refuse)
    for name in ("enumerate_matchings", "_relation_rows", "reduce_by_rewriting"):
        monkeypatch.setattr(homology, name, refuse)
    assert run(capsys, *argv) == (2, "", f"error: {reason}\n")


def test_reduce_keeps_an_all_standard_class_past_the_column_cap(capsys):
    standard = "30: " + " ".join(f"u{i}-{i + 1}" for i in range(1, 30, 2))
    assert run(capsys, "reduce", standard) == (0, f"1·({standard})\n", "")


PAIRED_22 = "22: " + " ".join(f"u{i}-{i + 1}" for i in range(1, 22, 2))
NESTED_22 = "22: u1-22 " + " ".join(f"u{i}-{i + 1}" for i in range(2, 21, 2))


@pytest.mark.parametrize("argv", [
    ("order", "-n", "22", "-k", "11"),
    ("distance", PAIRED_22, NESTED_22),
    ("sequence", PAIRED_22, NESTED_22),
    ("meet", PAIRED_22, NESTED_22),
    ("sequence", PAIRED_22, PAIRED_22),
], ids=["order", "distance", "sequence", "meet", "sequence from a matching to itself"])
def test_arrow_graph_commands_refuse_past_their_cap_without_building_it(
        capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the arrow graph was built or walked")

    for name in ("enumerate_matchings", "_arrow_table", "glue", "_bfs_path",
                 "_narrowest_leftmost_sequence"):
        monkeypatch.setattr(diagrams, name, refuse)
    count = matchings.count_matchings(22, 11)
    assert run(capsys, *argv) == (2, "", f"error: {argv[0]} -n 22 -k 11 would build an arrow "
                                         f"graph on {count} matchings, more than the cap of "
                                         f"{diagrams.ARROW_GRAPH_CAP}\n")


@pytest.mark.parametrize("argv, err", [
    (("matrix", "-n", "3", "-k", "1", "-m", "2", "--sigma", "s1"),
     "error: grading m=2 outside 0..1\n"),
    (("relations", "-n", "30", "-k", "15", "-m", "16"), "error: grading m=16 outside 0..15\n"),
    (("relations", "-n", "30", "-k", "-1"), "error: no matchings of type (31,-1) on 30 vertices\n"),
    (("betti", "-n", "3", "-k", "-1", "--method", "both"),
     "error: no matchings of type (4,-1) on 3 vertices\n"),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_the_column_cap_keeps_the_domain_errors_it_precedes(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_help_shows_the_description_not_the_module_docstring(capsys, monkeypatch):
    def help_text():
        with pytest.raises(SystemExit):
            main(["-h"])
        return capsys.readouterr().out

    before = help_text()
    monkeypatch.setattr(cli, "__doc__", "Edited implementation notes.")
    assert help_text() == before
    assert "Exit codes: 0 success" in before and "Start-up" not in before


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "-n", "4"])
    assert info.value.code == 1


def test_glue_and_distance(capsys):
    code, out, _ = run(capsys, "glue", "5: r1 u2-3 u4-5", "5: u1-2 u3-4 r5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 1 and data["compatible"] is True
    code, out, _ = run(capsys, "distance", "4: u1-2 r3 r4", "4: r1 r2 u3-4")
    assert code == 0 and out.strip() == "2"


def test_sequence_and_meet(capsys):
    code, out, _ = run(capsys, "sequence", "4: u1-2 u3-4", "4: u1-4 u2-3")
    assert code == 0
    assert out.splitlines()[-1] == "length=1 certified=true"
    code, out, _ = run(capsys, "meet", "4: u1-2 r3 r4", "4: r1 r2 u3-4")
    assert code == 0 and out.strip() == "4: r1 r2 u3-4"


def test_intersect(capsys):
    code, out, _ = run(capsys, "intersect", "4: u1-2 r3 r4", "4: r1 u2-3 r4")
    assert code == 0
    assert out.splitlines()[0] == "x1=-p; x2=-p; x3=-p; x4=+p"
    code, out, _ = run(capsys, "intersect", "4: u1-2 r3 r4", "4: r1 r2 u3-4")
    assert code == 0 and out.strip() == "empty"
    code, out, _ = run(capsys, "intersect", "4: u1-2 u3-4")
    assert code == 0
    assert out.splitlines() == ["x1 free; x2=x1; x3 free; x4=x3", "dimension=4"]


def test_tableau_roundtrip(capsys):
    code, out, _ = run(capsys, "tableau", "7: r1 u2-3 d4-7 u5-6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"top": [1, 2, 4, 5, 7], "bottom": [3, 6]}
    code, out, _ = run(
        capsys, "matching", "--top", "1,2,4,5,7", "--bottom", "3,6", "-k", "3"
    )
    assert code == 0 and out.strip() == "7: r1 u2-3 d4-7 u5-6"


def test_complete_restrict(capsys):
    code, out, _ = run(capsys, "complete", "6: u1-2 r3 u4-5 r6")
    assert code == 0 and out.strip() == "8: d1-8 d2-5 u3-4 u6-7"
    code, out, _ = run(capsys, "restrict", out.strip(), "--pad", "2")
    assert code == 0 and out.strip() == "6: u1-2 r3 u4-5 r6"
    code, out, _ = run(capsys, "restrict", "6: u1-6 u2-3 d4-5", "--pad", "1")
    assert code == 0 and out == "5: u1-2 d3-4 r5\n"


def test_order_and_relations(capsys):
    code, out, _ = run(capsys, "order", "-n", "4", "-k", "1")
    assert code == 0
    assert out.splitlines()[0] == "4: r1 r2 u3-4"
    code, out, _ = run(capsys, "relations", "-n", "4", "-k", "2", "-m", "0")
    assert code == 0
    assert out.strip() == "1·(4: d1-2 d3-4) - 1·(4: d1-4 d2-3)"


def test_order_refuses_a_negative_variant(capsys):
    code, out, err = run(capsys, "order", "-n", "4", "-k", "1", "--variant", "-1")
    assert (code, out) == (2, "")
    assert err == "error: order variant -1 is negative; use 0, 1 or a seed >= 2\n"


def test_relations_refuse_a_grading_outside_0_to_k(capsys):
    for m in ("5", "-1"):
        code, out, err = run(capsys, "relations", "-n", "4", "-k", "2", "-m", m)
        assert code == 2 and out == ""
        assert err == f"error: grading m={m} outside 0..2\n"
    with pytest.raises(DomainError, match="grading m=-1 outside 0..2"):
        psi_minus_rows(4, 2, -1)


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "4: u1-4 d2-3")
    assert code == 0
    assert out.strip() == "1·(4: d1-2 u3-4) + 1·(4: u1-2 d3-4) - 1·(4: d1-4 u2-3)"


def test_matrix_cache(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    code, out, _ = run(
        capsys, "matrix", "-n", "4", "-k", "2", "-m", "2",
        "--sigma", "s1", "--cache-dir", cache_dir, "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["matrix"] == [["-1", "-1"], ["0", "1"]]
    path = os.path.join(cache_dir, "rep_4_2_2", "p2-1-3-4.json")
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    assert stored["generator"] == "zeta-oracle" and stored["version"] == "2"
    assert stored["basis"] == ["4: u1-2 u3-4", "4: u1-4 u2-3"]
    # cached rerun gives identical output
    code2, out2, _ = run(
        capsys, "matrix", "-n", "4", "-k", "2", "-m", "2",
        "--sigma", "s1", "--cache-dir", cache_dir, "--json",
    )
    assert code2 == 0 and out2 == out
    # tampered provenance is ignored (recompute still succeeds)
    stored["generator"] = "elsewhere"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    code3, out3, _ = run(
        capsys, "matrix", "-n", "4", "-k", "2", "-m", "2",
        "--sigma", "s1", "--cache-dir", cache_dir, "--json",
    )
    assert code3 == 0 and out3 == out


def test_cache_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SPRINGER_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(
        capsys, "matrix", "-n", "2", "-k", "1", "-m", "1", "--sigma", "s1", "--cached"
    )
    assert code == 0
    assert os.path.exists(tmp_path / "envcache" / "rep_2_1_1" / "p2-1.json")


def test_character_and_chart(capsys):
    code, out, _ = run(capsys, "character", "-n", "4", "-k", "2")
    assert code == 0 and out.splitlines()[-1] == "coxeter=ok"
    code, out, _ = run(capsys, "chart", "-n", "4", "-k", "2")
    assert code == 0 and out.splitlines()[-1] == "anchors=ok"


def test_skein_and_calibrate(capsys):
    code, out, _ = run(capsys, "calibrate", "--nmax", "3")
    assert code == 0
    assert out.strip() == "identity=1 closure=-2:upperArc merge=-1:none"
    code, out, _ = run(
        capsys, "skein", "--sigma", "(1 2 3)", "--matching", "3: u1-2 r3"
    )
    assert code == 0 and out.strip() == "-1·(3: r1 u2-3)"


def test_calibrate_refuses_depths_outside_its_range_without_searching(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the calibration search started")

    monkeypatch.setattr(skein, "_anchor_ok", refuse)
    monkeypatch.setattr(skein, "_generator_pairs", refuse)
    code, out, err = run(capsys, "calibrate", "--nmax", "1")
    assert (code, out) == (2, "")
    assert err == "error: calibration depth 1 is below 2, where no generator acts\n"
    depth = skein.CALIBRATE_CAP + 1
    code, out, err = run(capsys, "calibrate", "--nmax", str(depth))
    assert (code, out) == (2, "")
    assert err == (f"error: calibrate --nmax {depth} would search past the depth cap "
                   f"of {skein.CALIBRATE_CAP}\n")


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-1·(3: r1 u2-3)\n"


def test_render_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "render", "7: r1 u2-3 d4-7 u5-6", "--format", "svg")
    code2, out2, _ = run(capsys, "render", "7: r1 u2-3 d4-7 u5-6", "--format", "svg")
    assert code == code2 == 0 and out1 == out2
    assert out1.count("<path") == 3          # three arcs
    assert out1.count("<circle") == 2        # one arc dot + one ray dot
    ascii_code, ascii_out, _ = run(capsys, "render", "2: u1-2")
    assert ascii_code == 0 and "1" in ascii_out and "2" in ascii_out
    path = tmp_path / "out.txt"
    assert run(capsys, "render", "2: u1-2", "-o", str(path)) == (0, "", "")
    assert path.read_text(encoding="utf-8") == ascii_out
    text = "1·(4: u1-2 u3-4) - 1·(4: u1-4 u2-3)"
    code, out, _ = run(capsys, "render", text, "--format", "svg")
    assert code == 0 and out.count("<path") == 4 and ">1·<" in out and ">-1·<" in out
    code, out, _ = run(capsys, "render", "0·(2: u1-2)", "--format", "svg")
    assert code == 0 and ">0</text>" in out and "<path" not in out


def test_render_ascii_draws_dots_rays_and_the_zero_class(capsys):
    from springer_tworow.render import render_ascii

    assert render_ascii(parse_matching("7: r1 u2-3 d4-7 u5-6")) == (
        "|\n"
        "*            _____*_____\n"
        "|    ___    |    ___    |\n"
        "|   |   |   |   |   |   |\n"
        "1   2   3   4   5   6   7")
    assert run(capsys, "render", "0·(2: u1-2)") == (0, "0\n", "")


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
    """(argv, env) running the CLI from this checkout's source in a subprocess."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "springer_tworow.cli", *argv], env


def test_a_reader_closing_early_ends_the_command_quietly():
    # 4,862 matchings fill about 280 kB, far past a pipe's buffer, so the
    # command is still writing when the reader stops after one line.
    argv, env = _springer_argv("enumerate", "-n", "18", "-k", "9")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.BROKEN_PIPE_EXIT == 141
    assert first == b"18: u1-2 u3-4 u5-6 u7-8 u9-10 u11-12 u13-14 u15-16 u17-18\n"
    assert err == b""


def test_a_closed_stdout_is_no_error():
    argv, env = _springer_argv("enumerate", "-n", "4", "-k", "1")
    proc = subprocess.run(argv, stderr=subprocess.PIPE, env=env, timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_render_rejects_an_unclosed_class(capsys):
    code, out, err = run(capsys, "render", "(4: u1-2")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("depth, code", [(3, 2), (4, 0)])
def test_verify_refuses_a_depth_where_suites_check_nothing(capsys, depth, code):
    got, out, err = run(capsys, "verify", "--all", "-nmax", str(depth))
    assert got == code
    if code:
        assert out == "" and err == "error: depth 3 is below 4, where some suites check nothing\n"


def test_verify_subset(capsys):
    code, out, _ = run(
        capsys, "verify", "--all", "-nmax", "4", "--only",
        "matching.codec-roundtrip", "subspace.fung-and-circles",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "PASS matching.codec-roundtrip",
        "PASS subspace.fung-and-circles",
    ]


@pytest.mark.parametrize("names", [("nosuch",), ("nosuch", "matching.codec-roundtrip", "zz")])
def test_verify_refuses_unknown_check_names(capsys, names):
    # a misspelt name must not pass by checking nothing, nor run the rest
    code, out, err = run(capsys, "verify", "--only", *names)
    assert code == 2 and out == ""
    unknown = ", ".join(sorted(set(names) - {"matching.codec-roundtrip"}))
    assert err == f"error: unknown checks: {unknown}\n"


def test_matching_refuses_a_non_integer_tableau_entry(capsys):
    code, out, err = run(capsys, "matching", "--top", "1,x", "--bottom", "3,4", "-k", "2")
    assert code == 2 and out == ""
    assert err == "error: tableau rows take integers: invalid literal for int() with base 10: 'x'\n"


@pytest.mark.parametrize("argv", [
    ("act", "--class", "4: u1-2 u3-4"),
    ("matrix", "-n", "4", "-k", "2", "-m", "1"),
    ("skein", "--matching", "4: u1-2 u3-4"),
])
def test_sigma_refuses_a_non_integer_cycle_entry(capsys, argv):
    code, out, err = run(capsys, *argv, "--sigma", "(1 a)")
    assert code == 2 and out == ""
    assert err == ("error: cycle entries take integers: "
                   "invalid literal for int() with base 10: 'a'\n")


def test_verify_all_nmax6_passes(capsys):
    code, out, _ = run(capsys, "verify", "--all", "-nmax", "6")
    assert code == 0, [line for line in out.splitlines() if line.startswith("FAIL")]
    assert "PASS diagram.component-steps" in out.splitlines()
    assert "PASS action.unit-triangular" in out.splitlines()
