"""What a cold start loads, and that a cold start answers like a warm one.

The package import is lazy and every ``springer`` subcommand imports only
the modules it uses.  These tests pin both import sets, pin the package's
public names, and run every subcommand once in a fresh interpreter, so a
module a command forgets to import fails here rather than for a user.
No import path may load ``dataclasses`` or ``inspect``: the package's
records are slot classes on ``records.Record``, and those two modules
alone cost a small command a large share of its start-up.
"""
import argparse
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import springer_tworow
from springer_tworow import cli

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "DottedMatching", "HomClass", "Matching", "Permutation", "ResolutionConvention",
    "SignedPartitionSubspace", "StandardTableau", "TabloidVector", "act", "act_via_gamma",
    "action", "arrow_successors", "betti", "calibrate", "character_table_check",
    "compatible", "complete", "complete_dotted", "derive_chart", "diagrams", "distance",
    "enumerate_matchings", "errors", "f_embed", "flatten", "format_matching", "glue",
    "hom_class", "homology", "irr_character", "linalg", "linear_order", "matching_of",
    "matching_vector", "matchings", "meet", "minimal_sequence", "modules_equal",
    "parse_matching", "parse_permutation", "permutations", "permute", "polytabloid",
    "presentation_betti", "pushforward_inclusion", "reduce_class", "relation_instances",
    "rep_matrix", "resolve_evaluate", "restrict", "restrict_dotted", "skein", "skein_act",
    "standard_dotted_matchings", "standard_layout", "subspace_of", "subspaces",
    "tableau_of", "tabloids", "validate", "zeta",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"
    return env


# Modules whose import alone is a large share of a small command's start-up.
UNWANTED = {"dataclasses", "inspect"}
SUBMODULES = sorted(p.stem for p in (SRC / "springer_tworow").glob("*.py")
                    if p.stem != "__init__")


def _modules_after(statement: str) -> set[str]:
    """Every module a fresh interpreter holds after STATEMENT."""
    probe = f"import sys\n{statement}\nprint(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_env(), timeout=60, check=True)
    return set(proc.stdout.split())


def _submodules(modules: set[str]) -> set[str]:
    return {name.removeprefix("springer_tworow.") for name in modules
            if name.startswith("springer_tworow.")}


def test_package_import_loads_no_submodule():
    assert _submodules(_modules_after("import springer_tworow")) == set()


def test_cli_import_loads_only_what_parsing_needs():
    loaded = _modules_after("import springer_tworow.cli")
    assert _submodules(loaded) == {"cli", "errors", "homology", "linalg", "matchings", "records"}
    assert not loaded & UNWANTED


def test_no_submodule_imports_dataclasses_or_inspect():
    loaded = _modules_after("\n".join(f"import springer_tworow.{m}" for m in SUBMODULES))
    assert _submodules(loaded) == set(SUBMODULES)
    assert not loaded & UNWANTED


def test_public_names_are_unchanged():
    assert springer_tworow.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(springer_tworow))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_is_its_defining_modules_object(name):
    value = getattr(springer_tworow, name)
    if isinstance(value, type(sys)):
        assert value is importlib.import_module(f"springer_tworow.{name}")
    else:
        assert value.__module__.startswith("springer_tworow.")
        assert value is getattr(sys.modules[value.__module__], name)


def test_names_follow_a_rebinding_in_the_defining_module(monkeypatch):
    from springer_tworow import homology

    def stand_in(n, k):
        return []

    monkeypatch.setattr(homology, "betti", stand_in)
    assert springer_tworow.betti is stand_in
    monkeypatch.undo()
    assert springer_tworow.betti is homology.betti
    assert "betti" not in vars(springer_tworow)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from springer_tworow import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["rep_matrix"] is springer_tworow.action.rep_matrix


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        springer_tworow.no_such_name
    with pytest.raises(ImportError):
        exec("from springer_tworow import no_such_name", {})


# One small valid input per subcommand; "{cache}" becomes a fresh directory.
SMOKE = [
    ["enumerate", "-n", "4", "-k", "1", "--json"],
    ["validate", "4: u1-2 d3-4"],
    ["complete", "6: u1-2 r3 u4-5 r6"],
    ["restrict", "8: d1-8 d2-5 u3-4 u6-7", "--pad", "2"],
    ["tableau", "7: r1 u2-3 d4-7 u5-6"],
    ["matching", "--top", "1,2,4,5,7", "--bottom", "3,6", "-k", "3"],
    ["glue", "5: r1 u2-3 u4-5", "5: u1-2 u3-4 r5"],
    ["distance", "4: u1-2 r3 r4", "4: r1 r2 u3-4"],
    ["order", "-n", "5", "-k", "2"],
    ["sequence", "4: u1-2 u3-4", "4: u1-4 u2-3"],
    ["meet", "4: u1-2 r3 r4", "4: r1 r2 u3-4"],
    ["intersect", "4: u1-2 r3 r4", "4: r1 u2-3 r4"],
    ["betti", "-n", "6", "-k", "3", "--method", "both"],
    ["reduce", "4: u1-4 d2-3"],
    ["relations", "-n", "4", "-k", "2", "-m", "0"],
    ["act", "--sigma", "(1 3)", "--class", "1·(4: u1-2 u3-4) - 2·(4: u1-4 u2-3)"],
    ["matrix", "-n", "5", "-k", "2", "-m", "1", "--sigma", "(1 2 3)", "--json",
     "--cached", "--cache-dir", "{cache}"],
    ["character", "-n", "4", "-k", "2"],
    ["chart", "-n", "4", "-k", "2"],
    ["skein", "--sigma", "(1 2 3)", "--matching", "3: u1-2 r3"],
    ["calibrate", "--nmax", "3"],
    ["verify", "--all", "-nmax", "4"],
    ["render", "1·(4: u1-2 u3-4) - 1·(4: u1-4 u2-3)"],
]
USAGE_ERROR, DOMAIN_ERROR = ["enumerate", "-n", "4"], ["validate", "4: u1-3 r2 r4"]
NEGATIVE_K = ["betti", "-n", "3", "-k", "-1"]


def test_smoke_cases_cover_every_subcommand():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in SMOKE} == set(sub.choices)


def _imports(stderr: bytes) -> tuple[set[str], str]:
    """Split ``-X importtime`` stderr into the imported module names and the rest."""
    names, rest = set(), []
    for line in stderr.decode("utf-8", "replace").splitlines():
        if line.startswith("import time:"):
            names.add(line.rsplit("|", 1)[1].strip())
        else:
            rest.append(line)
    return names, "\n".join(rest)


# ``-X importtime`` does not list a submodule loaded by ``from . import name``,
# so the cold probes below read ``sys.modules`` at exit instead.
_COLD_PROBE = ("import sys\nfrom springer_tworow import cli\ncode = cli.main(sys.argv[1:])\n"
               "sys.stderr.write(' '.join(sys.modules))\nsys.exit(code)")


def _cold(argv, cwd) -> tuple[set[str], bytes]:
    """Package submodules a cold ``springer ARGV`` loads, and its stdout."""
    proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, *argv], capture_output=True,
                          cwd=cwd, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return _submodules(set(proc.stderr.decode().split())), proc.stdout


def test_cold_betti_loads_neither_diagrams_nor_permutations(tmp_path):
    loaded, out = _cold(["betti", "-n", "4", "-k", "1"], tmp_path)
    assert out == b"1 3\n"
    assert not loaded & {"diagrams", "permutations"}


def test_cold_cache_hit_loads_no_action_layer(tmp_path):
    argv = ["matrix", "-n", "5", "-k", "2", "-m", "1", "--sigma", "(1 2 3)", "--cached",
            "--cache-dir", str(tmp_path / "cache")]
    miss, miss_out = _cold(argv, tmp_path)
    hit, hit_out = _cold(argv, tmp_path)
    assert "action" in miss
    assert not hit & {"action", "tabloids", "diagrams"}
    assert hit_out == miss_out and miss_out


def test_cold_skein_loads_no_tabloid_oracle(tmp_path):
    # The fold needs neither the action nor the tabloids it is checked against.
    sigma, M = "s5 s4 s1 s3 s1 s3", "6: u1-4 u2-3 u5-6"
    loaded, out = _cold(["skein", "--sigma", sigma, "--matching", M], tmp_path)
    assert not loaded & {"action", "tabloids"}
    assert out == _cold(["act", "--sigma", sigma, "--class", M], tmp_path)[1]
    assert out == "-1·(6: u1-6 u2-3 u4-5)\n".encode()


def _parse(parser, argv, capsys) -> tuple[str, str, object, dict | None]:
    """Stdout, stderr, exit code and parsed namespace of PARSER on ARGV."""
    capsys.readouterr()
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return out, err, code, namespace


def _main_exit(argv, capsys) -> tuple[str, str, object, None]:
    """``_parse``'s tuple for ``cli.main(ARGV)``, whose parse exits."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    return out, err, info.value.code, None


# Per command: -h, the bare command (a missing required argument where it
# has one), and a valid call with an unrecognised extra argument.
PARSE_CASES = [[name, *case] for name in cli.COMMANDS for case in (["-h"], [])]
PARSE_CASES += [[*argv, "--no-such-option"] for argv in SMOKE]
# A depth below 4 parses; only verify.run_all refuses it, after the parse.
PARSE_CASES += [["verify", "--all", "-nmax", "3", "--no-such-option"]]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_one_subparser_parse_is_byte_identical(argv, capsys):
    full = _parse(cli.build_parser(), argv, capsys)
    assert _parse(cli.build_parser(argv[0]), argv, capsys) == full
    if full[2] is not None:
        assert _main_exit(argv, capsys) == full


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"]], ids=repr)
def test_main_without_a_known_command_answers_as_the_full_parser(argv, capsys):
    assert _main_exit(argv, capsys) == _parse(cli.build_parser(), argv, capsys)


def test_main_builds_only_the_invoked_subparser(monkeypatch, capsys):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or build(command))
    for argv in (["enumerate", "-h"], ["-h"], ["bogus"]):
        _main_exit(argv, capsys)
    assert built == ["enumerate", None, None]


def _in_process(argv, capsys) -> tuple[bytes, int]:
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse reports a usage error by exiting
        code = exc.code
    return capsys.readouterr().out.encode("utf-8"), code


@pytest.mark.parametrize("argv, expected", [
    *((argv, 0) for argv in SMOKE), (USAGE_ERROR, 1), (DOMAIN_ERROR, 2), (NEGATIVE_K, 2),
], ids=lambda case: " ".join(case[:3]) if isinstance(case, list) else None)
def test_cold_run_matches_in_process_run(argv, expected, tmp_path, capsys):
    cold_argv = [a.replace("{cache}", str(tmp_path / "cold")) for a in argv]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "springer_tworow.cli",
                           *cold_argv],
                          capture_output=True, cwd=tmp_path, env=_env(), timeout=120)
    imported, stderr = _imports(proc.stderr)
    warm_argv = [a.replace("{cache}", str(tmp_path / "warm")) for a in argv]
    out, code = _in_process(warm_argv, capsys)
    assert proc.returncode == code, stderr
    assert not imported & UNWANTED
    assert proc.stdout == out
    assert code == expected
    assert bool(out) == (expected == 0)
