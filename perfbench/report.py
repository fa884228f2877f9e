"""Run every workload once, untraced, and print each end-to-end metric.

    python3 perfbench/report.py [--seed N]

Each workload runs as ``run.py`` runs it, in its own process, for
``run_seconds`` from BENCHMARK.json; the table lists every end-to-end
metric by name and unit, then whether the outputs were correct and how
many jobs failed (``run.py`` prints each failed job's inputs).
Exits 1 if any output was wrong or any run could not finish.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

from jobs import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    results, ok = {}, True
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(RUN_SECONDS),
                               "--trace", "0"],
                              cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
        sys.stderr.write(proc.stderr)
    names = {name: m["unit"] for r in results.values() for name, m in r["metrics"].items()}
    width = max(map(len, names), default=10)
    print(f"{'metric':{width}}  {'unit':6}" + "".join(f"{w:>14}" for w in results))
    for name, unit in names.items():
        cells = "".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values())
        print(f"{name:{width}}  {unit:6}{cells}")
    for key in ("correct", "attempted", "failed"):
        print(f"{key:{width}}  {'':6}" + "".join(f"{str(r[key]):>14}" for r in results.values()))
    ok = ok and all(r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
