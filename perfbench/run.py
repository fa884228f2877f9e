"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload {action,homology,skein,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The program under test is
``src/springer_tworow``, imported from source; nothing is installed.

A run repeats passes of the seeded job list, each pass in a fresh worker
process (``worker.py``), as many as fill about ``--seconds``.  The first
pass checks every output by an independent route; later passes must
reproduce its outputs exactly.  Times are CPU time of the process doing
the work, scaled to a reference machine speed (see speed.py and NOTES.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Every run writes a record to
``.perfbench_out/<workload>-seed<N>-trace<T>.json`` and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PER_PASS = 3   # set-up samples (setup_probe.py) after each untraced pass
#: Wall seconds one pass of each workload took at the baseline (Python 3.11.7,
#: 2 cores).  A run makes about --seconds / this many passes.  The count is
#: fixed before the run starts: stopping on the clock would make fast
#: stretches of a noisy machine get more passes than slow ones.
PASS_SECONDS = {"action": 6.5, "homology": 6.5, "skein": 3.3, "cli": 11.0}

import layers  # noqa: E402
import speed  # noqa: E402
from jobs import WORKLOADS, jobs_for, probe_jobs  # noqa: E402

#: End-to-end metrics, reported by every --trace 0 run.
E2E = [
    ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"), ("job_tail_ms", "ms"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("startup_ms", "ms"), ("cache_hit_ms", "ms"),
    ("cache_miss_ms", "ms"),
]


class RunFailed(Exception):
    """The run could not finish (the program is missing, a worker died or hung)."""


def child(cmd: list[str], what: str, deadline: float) -> dict:
    """Start one harness child, wait for it, and return its JSON result."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{what} passed the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode:
        raise RunFailed(f"{what} exited {proc.returncode}:\n"
                        + err.decode("utf-8", "replace")[-3000:])
    return json.loads(out.decode().splitlines()[-1])


def worker(workload: str, jobs_file: str, work: str, deadline: float, mode: str = "pass",
           traced: bool = False, check: bool = False, spans: str | None = None) -> dict:
    """Run one worker (a pass of the job list, or the expected CLI outputs)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--jobs", jobs_file, "--mode", mode, "--work", work, "--deadline", repr(deadline)]
    cmd += ["--traced"] if traced else []
    cmd += ["--check"] if check else []
    cmd += ["--spans", spans] if spans else []
    return child(cmd, f"{workload} {mode} worker", deadline)


def setup_sample(workload: str, work: str, deadline: float) -> dict:
    """One set-up sample from a fresh interpreter that imports only the program first."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, work,
           repr(time.monotonic())]
    return child(cmd, f"{workload} set-up probe", deadline)


# --- checking ---------------------------------------------------------------------

def in_process_failures(jobs, passes) -> list[dict]:
    """Failures of every pass; passes after the first must repeat its outputs."""
    reference = passes[0]["digests"]
    out = []
    for idx, p in enumerate(passes):
        for job in jobs:
            jid = str(job["id"])
            failure = p["failures"].get(jid)
            if failure is None and idx and p["digests"].get(jid) != reference.get(jid):
                failure = {"wrong": "output differs from the checked first pass"}
            if failure:
                out.append({"pass": idx, "job": job, **failure})
    return out


def cli_failures(jobs, passes, expected, first_pass: int = 0) -> list[dict]:
    """Exit code 0, stdout equal to the library result, hits equal to misses."""
    out = []
    for idx, p in enumerate(passes, start=first_pass):
        miss = {}
        for job in jobs:
            jid = str(job["id"])
            stdout, code = p["stdout"][jid], p["codes"][jid]
            failure = {}
            if job["group"] == "cache_miss":
                miss[job["key"]] = stdout
            if stdout != expected[jid]:
                failure["wrong"] = "stdout differs from the in-process library result"
            elif job["group"] == "cache_hit" and stdout != miss.get(job["key"]):
                failure["wrong"] = "cache-hit stdout differs from its miss"
            if code:
                failure["exit"] = code
                failure["stderr"] = p["stderr"].get(jid, "")[-500:]
            if failure:
                out.append({"pass": idx, "job": job, **failure})
    return out


def correct(failures: list[dict]) -> bool:
    """False when some output was wrong; a job that gave no answer only fails."""
    return not any("wrong" in f for f in failures)


# --- metrics ------------------------------------------------------------------------

def latencies(p: dict, clock: str) -> list[float]:
    """A pass's job times: reference-speed CPU ("ref"), raw CPU ("cpu") or wall."""
    if clock == "wall":
        return p["wall_latencies"]
    if clock == "cpu":
        return p["latencies"]
    return [t * speed.factor(p["speed"], mark) for t, mark in zip(p["latencies"], p["marks"])]


def setup_time(p: dict, clock: str) -> float:
    if clock == "wall":
        return p["setup_wall_s"]
    return p["setup_s"] * (speed.factor(p["speed"], 0) if clock == "ref" else 1.0)


def tail_rank(n_jobs: int) -> int:
    """1-based rank of the highest percentile with at least ten jobs beyond it."""
    return max(1, n_jobs - 10)


def tail_percentile(n_jobs: int) -> float:
    return 100.0 * tail_rank(n_jobs) / n_jobs


def group_ms(cli_passes, group: str, clock: str) -> float:
    """Median time of one group of CLI jobs, pooled over (jobs, pass) pairs."""
    return 1000 * statistics.median(t for jobs, p in cli_passes
                                    for t, job in zip(latencies(p, clock), jobs)
                                    if job["group"] == group)


def end_to_end(jobs, passes, setups, cli_passes, clock: str = "ref") -> dict:
    """The end-to-end metrics on one clock (see :func:`latencies`).

    A job's latency is its mean over the passes, not the median: the
    passes are spread over the run, so the mean averages out slow swings
    in the machine's speed.
    """
    per_pass = [latencies(p, clock) for p in passes]
    per_job = sorted(statistics.fmean(times) for times in zip(*per_pass))
    return {
        "jobs_per_s": len(jobs) * len(passes) / sum(map(sum, per_pass)),
        "job_p50_ms": 1000 * statistics.median(per_job),
        "job_tail_ms": 1000 * per_job[tail_rank(len(per_job)) - 1],
        "setup_s": statistics.median(setup_time(p, clock) for p in setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "startup_ms": group_ms(cli_passes, "trivial", clock),
        "cache_hit_ms": group_ms(cli_passes, "cache_hit", clock),
        "cache_miss_ms": group_ms(cli_passes, "cache_miss", clock),
    }


def per_layer(untraced, traced) -> dict:
    values = []
    for p in traced:
        factor = speed.factor(p["speed"])
        totals = dict(p["totals"], self_s={name: s * factor
                                           for name, s in p["totals"]["self_s"].items()})
        v = layers.layer_values(totals)
        v["skein.calibrate.self_s"] += p.get("setup_calibrate_s", 0.0) * factor
        layer_self = sum(s for name, s in p["totals"]["self_s"].items() if name != "job")
        v["bench.unattributed_s"] = (sum(p["latencies"]) - layer_self) * factor
        v["cli.import_ms"] = (factor * statistics.median(p["import_ms"])
                              if p.get("import_ms") else 0.0)
        values.append(v)
    out = {name: statistics.median(v[name] for v in values) for name in values[0]}
    out["bench.trace_overhead_ratio"] = (
        statistics.median(sum(p["wall_latencies"]) for p in traced)
        / statistics.median(sum(p["wall_latencies"]) for p in untraced))
    return out


# --- the run ------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def write_probe(seed: int, work: str) -> tuple[str, list[tuple[str, list[dict]]]]:
    """Write the CLI probe's job files: one for all rounds, and one per round."""
    rounds = probe_jobs(seed)
    every = os.path.join(work, "probe.json")
    with open(every, "w", encoding="utf-8") as fh:
        json.dump([job for round_jobs in rounds for job in round_jobs], fh)
    out = []
    for idx, round_jobs in enumerate(rounds):
        path = os.path.join(work, f"probe{idx}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(round_jobs, fh)
        out.append((path, round_jobs))
    return every, out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "springer_tworow" / "__init__.py").is_file():
        raise RunFailed(f"no program to measure: {ROOT / 'src' / 'springer_tworow'} is missing")
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    spans_dir = OUT / "spans"
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        jobs = jobs_for(workload, seed)
        jobs_file = os.path.join(work, "jobs.json")
        with open(jobs_file, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)
        cli_run = workload == "cli"
        expected = (worker(workload, jobs_file, work, deadline, mode="expect")["expected"]
                    if cli_run else None)
        if trace:
            spans_dir.mkdir(exist_ok=True)
            for old in spans_dir.glob(f"{workload}-*"):
                old.unlink()
        probe_rounds = []
        if not (trace or cli_run):
            probe_file, probe_rounds = write_probe(seed, work)
            probe_expected = worker("probe", probe_file, work, deadline,
                                    mode="expect")["expected"]
        n_passes = max(2 if trace else 1, round(seconds / PASS_SECONDS[workload]))
        passes, probe_passes, setups = [], [], []
        while len(passes) < n_passes:
            traced = trace and len(passes) % 2 == 1
            spans = str(spans_dir / f"{workload}-pass{len(passes)}") if traced else None
            p = worker(workload, jobs_file, work, deadline, traced=traced,
                       check=not passes, spans=spans)
            p["traced"] = traced
            passes.append(p)
            if not trace:
                setups += [setup_sample(workload, work, deadline)
                           for _ in range(SETUP_PER_PASS)]
            if len(probe_passes) < len(probe_rounds):
                # The probe rounds sit between the passes, off the measured time.
                round_file = probe_rounds[len(probe_passes)][0]
                probe_passes.append(worker("probe", round_file, work, deadline))
        for round_file, _ in probe_rounds[len(probe_passes):]:
            probe_passes.append(worker("probe", round_file, work, deadline))
        untraced = [p for p in passes if not p["traced"]]
        traced = [p for p in passes if p["traced"]]
        if cli_run:
            failures = cli_failures(jobs, passes, expected)
        else:
            failures = in_process_failures(jobs, passes)
        attempted = len(jobs) * len(passes)
        record = {"workload": workload, "seed": seed, "trace": int(trace),
                  "run_seconds": seconds, "python": platform.python_version(),
                  "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
                  "jobs": len(jobs), "passes": len(passes), "traced_passes": len(traced),
                  "tail_percentile": round(tail_percentile(len(jobs)), 1)}
        if trace:
            metrics = per_layer(untraced, traced)
            units = dict(layers.PER_LAYER)
        else:
            cli_passes = [(jobs, p) for p in untraced]
            if probe_rounds:
                cli_passes = [(round_jobs, p) for (_, round_jobs), p
                              in zip(probe_rounds, probe_passes)]
                for idx, (round_jobs, p) in enumerate(cli_passes):
                    failures += cli_failures(round_jobs, [p], probe_expected,
                                             first_pass=len(passes) + idx)
                    attempted += len(round_jobs)
                record["probe_jobs"] = sum(len(round_jobs) for round_jobs, _ in cli_passes)
                record["probe_detail"] = [
                    {"groups": [job["group"] for job in round_jobs], "speed": p["speed"],
                     "marks": p["marks"], "latencies": p["latencies"]}
                    for round_jobs, p in cli_passes]
            metrics = end_to_end(jobs, untraced, setups, cli_passes)
            units = dict(E2E)
            for clock in ("cpu", "wall"):
                record[f"{clock}_clock_metrics"] = end_to_end(jobs, untraced, setups,
                                                              cli_passes, clock)
            record["setup_samples"] = [setup_time(p, "ref") for p in setups]
        if trace:
            metrics["bench.error_rate"] = len(failures) / attempted
        record.update(
            correct=correct(failures),
            attempted=attempted, failed=len(failures),
            metrics={name: {"value": value, "unit": units[name]}
                     for name, value in metrics.items()},
            failed_jobs=failures,
            passes_detail=[{key: p[key] for key in ("traced", "wall_s", "rss_mb", "latencies",
                                                    "speed", "marks")}
                           for p in passes],
        )
        with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for f in record["failed_jobs"]:
        reason = f.get("wrong") or f.get("error") or f"exit {f['exit']}"
        print(f"failed: {args.workload} pass {f['pass']}: {reason}: {json.dumps(f['job'])}",
              file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                    "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
