"""Self-tests of the benchmark harness (not of the program).

    PYTHONPATH=src python -m pytest -q perfbench/test_harness.py
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from jobs import WORKLOADS, jobs_for  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_self_time_of_synthetic_nested_spans():
    records = [
        ("job", 0, -1, 0.0, 10.0),
        ("a", 0, 0, 1.0, 5.0),
        ("b", 0, 1, 2.0, 3.0),
        ("b", 0, 1, 3.5, 4.0),
        ("c", 0, 0, 6.0, 9.0),
        ("a", 0, 4, 7.0, 8.0),
    ]
    assert self_times(records) == pytest.approx({"job": 3.0, "a": 2.5 + 1.0, "b": 1.5, "c": 2.0})


def _spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_online_self_time_matches_the_records():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _spin(0.01))

    def outer_fn():
        _spin(0.01)
        inner()
        inner()

    outer = tracer.wrap("outer", outer_fn)
    tracer.run_job(7, outer)
    from_records = self_times(tracer.records())
    assert set(from_records) == {"job", "outer", "inner"}
    for name, value in from_records.items():
        assert tracer.totals["self_s"][name] == pytest.approx(value, abs=2e-3)
    assert from_records["inner"] == pytest.approx(0.02, abs=5e-3)
    assert from_records["outer"] == pytest.approx(0.01, abs=5e-3)
    assert tracer.totals["calls"] == {"job": 1, "outer": 1, "inner": 2}
    assert {job for _, job, _, _, _ in tracer.records()} == {7}


def _bindings():
    """Every module attribute and traced class attribute in springer_tworow."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "springer_tworow" or name.startswith("springer_tworow."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for module, path, _, _ in layers.TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(sys.modules[module], cls_name)
            out[(module, path)] = owner.__dict__.get(attr, "<inherited>")
    return out


def test_wrapper_removal_restores_every_binding():
    import springer_tworow.cache  # noqa: F401
    import springer_tworow.cli  # noqa: F401
    from springer_tworow import action, homology, linalg, matchings, tabloids

    before = _bindings()
    original_sdm = matchings.standard_dotted_matchings
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        # Replaced in the defining module and under every imported name.
        assert matchings.standard_dotted_matchings is not original_sdm
        assert action.standard_dotted_matchings is matchings.standard_dotted_matchings
        assert homology.standard_dotted_matchings is matchings.standard_dotted_matchings
        assert "__wrapped_original__" in vars(linalg.ColumnSolver.__init__)
        assert "parse_args" in vars(springer_tworow.cli._Parser)
        assert tabloids.TabloidVector.to_row is not before[(layers.P + "tabloids",
                                                            "TabloidVector.to_row")]
    finally:
        tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_traced_spans_count_calls_into_each_layer():
    from springer_tworow import action, homology
    from springer_tworow.permutations import adjacent

    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        tracer.run_job(0, lambda: action.rep_matrix(adjacent(5, 2), 5, 2, 1))
        tracer.run_job(1, lambda: homology.presentation_betti(5, 2))
    finally:
        tracer.remove()
    values = layers.layer_values(tracer.totals)
    assert values["action.rep_matrix.calls"] == 1
    assert values["action.rep_matrix.dim_max"] == 4
    assert values["linalg.ColumnSolver.factors"] >= 1
    assert values["homology.presentation_betti.self_s"] > 0
    assert 0 < values["linalg.rref.density"] <= 1
    assert set(values) >= {name for name, _ in layers.PER_LAYER if not
                           name.startswith("bench.")}


def _springer(argv, cwd, traced: bool) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    if traced:
        cmd = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
               "--spans", str(cwd / "t.spans"), "--job", "0", "--", *argv]
    else:
        cmd = [sys.executable, "-m", "springer_tworow.cli", *argv]
    return subprocess.run(cmd, capture_output=True, cwd=cwd, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["betti", "-n", "4", "-k", "1"],
    ["act", "--sigma", "(1 3)", "--class", "1·(4: u1-2 u3-4) - 2·(4: u1-4 u2-3)"],
    ["skein", "--sigma", "s1 s2 s1", "--matching", "4: u1-2 d3-4"],
    ["matrix", "-n", "5", "-k", "2", "-m", "1", "--sigma", "(1 2 3)", "--cached",
     "--cache-dir", "cache"],
    ["validate", "4: u1-3"],
])
def test_cli_stdout_is_identical_traced_and_untraced(argv, tmp_path):
    for _ in range(2):  # the second matrix run reads the cache
        plain = _springer(argv, tmp_path, traced=False)
        traced = _springer(argv, tmp_path, traced=True)
        assert traced.stdout == plain.stdout
        assert traced.returncode == plain.returncode
    totals = json.loads((tmp_path / "t.spans.json").read_text())
    assert totals["calls"]["cli.main"] == 1


def _import_order(cmd, cwd) -> list[str]:
    """Modules in the order ``-X importtime`` reports them (each on completion)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *cmd], capture_output=True,
                          cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]
    return [line.split("|")[2].strip() for line in proc.stderr.decode().splitlines()
            if line.startswith("import time:")]


@pytest.mark.parametrize("script", ["setup_probe", "traced_cli"])
def test_the_program_is_imported_before_any_harness_module(script, tmp_path):
    if script == "setup_probe":
        cmd = [str(HERE / "setup_probe.py"), "cli", str(tmp_path), repr(time.monotonic())]
    else:
        cmd = [str(HERE / "traced_cli.py"), "--spans", str(tmp_path / "t.spans"), "--job",
               "0", "--", "validate", "4: u1-2 u3-4"]
    order = _import_order(cmd, tmp_path)
    program = order.index("springer_tworow.cli")
    # Standard modules the program needs are charged to the program ...
    assert order.index("json") < program
    assert order.index("fractions") < program
    # ... and the harness's own modules come after it.
    harness = {"setup_probe": "speed", "traced_cli": "spans"}[script]
    assert order.index(harness) > program
    if script == "setup_probe":
        assert len(list(tmp_path.glob("setup-cache-*"))) == 1


def test_a_raising_cross_check_is_a_wrong_answer(tmp_path, monkeypatch):
    from springer_tworow import homology
    from springer_tworow.errors import InternalCheckError

    def disagree(x, *args, **kwargs):
        raise InternalCheckError("linear and rewriting routes disagree")

    monkeypatch.setattr(homology, "reduce_class", disagree)
    jobs = [job for job in jobs_for("homology", 1) if job["kind"] == "reduce"][:2]
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(jobs))
    args = argparse.Namespace(workload="homology", jobs=str(jobs_file), traced=False,
                              check=True, spans=None)
    result = json.loads(json.dumps(worker.in_process_pass(args)))  # as run.py reads it
    failures = run.in_process_failures(jobs, [result])
    assert [f["job"] for f in failures] == jobs
    assert all("InternalCheckError" in f["wrong"] for f in failures)
    assert not run.correct(failures)
    # A job that only gave no answer fails without making the run incorrect.
    failure = checks.raised({"kind": "skein"}, MemoryError())
    assert "wrong" not in failure and run.correct([failure])


def test_job_lists_depend_only_on_the_seed():
    for workload in WORKLOADS:
        assert jobs_for(workload, 3) == jobs_for(workload, 3)
        assert jobs_for(workload, 3) != jobs_for(workload, 4)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "action",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == b""
