"""One pass of a workload in a fresh interpreter; prints one JSON line.

A pass runs the whole seeded job list as a closed loop: one job at a time,
each started only after the previous one returned.  ``run.py`` starts a
new worker for every pass, so per-shape caches inside the program start
cold each pass, as they do for a user.

Modes:
  pass    run the jobs (``--traced`` installs the spans, ``--check`` runs
          the independent checks after the timed jobs)
  expect  print the expected stdout of each CLI job, computed in-process

Set-up time is not sampled here, because this process imports harness
modules before the program; ``setup_probe.py`` samples it.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                                    else "")
    return env


def load_jobs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    sys.path.insert(0, str(SRC))
    import springer_tworow
    if Path(springer_tworow.__file__).resolve().parent != SRC / "springer_tworow":
        raise SystemExit(f"springer_tworow imported from {springer_tworow.__file__}, "
                         f"not from {SRC}")


def prepare(job: dict):
    """A no-argument callable running the job's program call."""
    from springer_tworow import action, homology, skein, tabloids
    from springer_tworow.matchings import parse_matching
    from springer_tworow.permutations import Permutation

    from checks import as_class

    kind = job["kind"]
    if kind == "rep_matrix":
        sigma = Permutation(tuple(job["sigma"]))
        return lambda: action.rep_matrix(sigma, job["n"], job["k"], job["m"])
    if kind == "gamma":
        sigma, M = Permutation(tuple(job["sigma"])), parse_matching(job["matching"])
        return lambda: action.act_via_gamma(sigma, M)
    if kind == "character":
        return lambda: action.character_table_check(job["n"], job["k"])
    if kind == "modules_equal":
        return lambda: tabloids.modules_equal(job["n"], job["m"], job["k"])
    if kind == "presentation_betti":
        return lambda: homology.presentation_betti(job["n"], job["k"])
    if kind == "reduce":
        x = as_class(job["terms"])
        return lambda: homology.reduce_class(x, check=True)
    if kind == "skein":
        M, word = parse_matching(job["matching"]), job["word"]
        return lambda: skein.resolve_evaluate(M, skein.flatten(word, M.n))
    raise ValueError(f"unknown job kind {kind!r}")


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def in_process_pass(args) -> dict:
    import_program()
    tracer = None
    if args.traced:
        import layers
        from spans import Tracer
        tracer = Tracer()
        tracer.install(layers.TARGETS)
    if args.workload == "skein":
        from springer_tworow import skein
        skein.calibrate(3)
    jobs = load_jobs(args.jobs)
    latencies, wall_latencies, outputs, errors = [], [], {}, {}
    meter = speed.Meter()
    wall0 = time.perf_counter()
    marks = []
    for job in jobs:
        marks.append(meter.tick())
        call = prepare(job)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs[job["id"]] = tracer.run_job(job["id"], call) if tracer else call()
        except Exception as exc:  # a failed job is counted, not fatal
            errors[job["id"]] = exc
        latencies.append(time.process_time() - c0)
        wall_latencies.append(time.perf_counter() - t0)
    meter.tick(force=True)
    result = dict(wall_s=time.perf_counter() - wall0, latencies=latencies,
                  wall_latencies=wall_latencies, speed=meter.samples, marks=marks,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        tracer.remove()
        if args.spans:
            tracer.write(args.spans + ".spans")
        # calibrate(3) on skein runs in set-up, outside every job.
        result.update(totals=tracer.totals, setup_calibrate_s=tracer.setup_totals["self_s"]
                      .get("skein.calibrate", 0.0))
    import checks
    digests, failures = {}, {}
    for job in jobs:
        jid = job["id"]
        if jid in errors:
            failures[jid] = checks.raised(job, errors[jid])
            continue
        digests[jid] = checks.digest_text(job, outputs[jid])
        if args.check:
            reason = checks.check(job, outputs[jid], outputs)
            if reason:
                failures[jid] = {"wrong": reason}
    result.update(digests=digests, failures=failures)
    return result


def cli_pass(args) -> dict:
    jobs = load_jobs(args.jobs)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=args.work)
    latencies, wall_latencies, stdout, codes, stderr, import_us = [], [], {}, {}, {}, []
    totals: dict = {}
    meter = speed.Meter()
    if args.traced:
        import layers
    wall0 = time.perf_counter()
    marks = []
    for job in jobs:
        marks.append(meter.tick(force=True))
        jid = job["id"]
        argv = [a.replace("{cache}", cache_dir) for a in job["argv"]]
        if args.traced:
            spans = f"{args.spans or os.path.join(args.work, 'cli')}-job{jid}.spans"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                   "--spans", spans, "--job", str(jid), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "springer_tworow.cli", *argv]
        c0, t0 = children_cpu(), time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, cwd=args.work, env=cli_env(),
                              timeout=max(1.0, args.deadline - time.monotonic()))
        latencies.append(children_cpu() - c0)
        wall_latencies.append(time.perf_counter() - t0)
        stdout[jid] = proc.stdout.decode("utf-8", "replace")
        codes[jid] = proc.returncode
        err = proc.stderr.decode("utf-8", "replace")
        if args.traced:
            # The package, then the cli module: their cumulative times add up
            # to the program's whole import.
            import_us.append(sum(
                int(line.split("|")[1]) for line in err.splitlines()
                if line.startswith("import time:")
                and line.split("|")[2].strip() in ("springer_tworow", "springer_tworow.cli")))
            err = "\n".join(line for line in err.splitlines()
                            if not line.startswith("import time:"))
            try:
                with open(spans + ".json", encoding="utf-8") as fh:
                    layers.merge(totals, json.load(fh))
            except FileNotFoundError:
                pass  # the job crashed before writing; its failure is counted
        if proc.returncode:
            stderr[jid] = err[-2000:]
    meter.tick(force=True)
    result = dict(wall_s=time.perf_counter() - wall0, speed=meter.samples, marks=marks,
                  latencies=latencies, wall_latencies=wall_latencies,
                  rss_mb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                  stdout=stdout, codes=codes, stderr=stderr)
    if args.traced:
        result.update(totals=totals, import_ms=[us / 1000 for us in import_us])
    return result


def expect(args) -> dict:
    import_program()
    import checks
    by_argv, out = {}, {}
    for job in load_jobs(args.jobs):
        key = tuple(job["argv"])
        if key not in by_argv:
            by_argv[key] = checks.expected_stdout(job)
        out[job["id"]] = by_argv[key]
    return {"expected": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--jobs", required=True, help="JSON file with the job list")
    p.add_argument("--mode", choices=("pass", "expect"), default="pass")
    p.add_argument("--deadline", type=float, default=None,
                   help="time.monotonic() by which the pass must end")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--check", action="store_true")
    p.add_argument("--work", default=None, help="scratch directory for CLI jobs")
    p.add_argument("--spans", default=None, help="path prefix of the span files to write")
    args = p.parse_args(argv)
    if args.mode == "expect":
        result = expect(args)
    elif args.workload in ("cli", "probe"):
        result = cli_pass(args)
    else:
        result = in_process_pass(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
