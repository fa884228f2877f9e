"""Run one ``springer`` invocation with spans installed.

    python -X importtime perfbench/traced_cli.py --spans FILE --job ID -- ARGV...

Imports ``springer_tworow.cli`` before any harness module, so that
``-X importtime`` charges every module the program needs to the program.
Then installs the wrappers, calls ``cli.main(ARGV)`` as one job and exits
with its return code.  Stdout is the command's own; the spans go to FILE
and the per-name totals to FILE.json.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
                                "src"))
from springer_tworow import cli  # noqa: E402

import json  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    sep = sys.argv.index("--")
    opts = dict(zip(sys.argv[1:sep:2], sys.argv[2:sep:2]))
    argv = sys.argv[sep + 1:]
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        return tracer.run_job(int(opts["--job"]), cli.main, argv)
    finally:
        tracer.remove()
        sys.stdout.flush()
        tracer.write(opts["--spans"])
        with open(opts["--spans"] + ".json", "w", encoding="utf-8") as fh:
            json.dump(tracer.totals, fh)


if __name__ == "__main__":
    sys.exit(main())
