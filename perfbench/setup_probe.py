"""One set-up sample of a workload, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR SPAWN

Set-up is what a user pays before the first job: interpreter start and
the program's import, plus ``calibrate(3)`` on ``skein``, and on ``cli``
the import of ``springer_tworow.cli`` and a fresh cache directory under
WORKDIR.  This process imports nothing but the program until set-up
ends, so every module the program needs is charged to the program.  Then
it samples the machine speed and prints one JSON line:
``{"setup_s", "setup_wall_s", "speed"}``.  SPAWN is ``time.monotonic()``
just before this process was started.
"""
import os
import sys
import time

workload, work, spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import springer_tworow  # noqa: E402

if workload == "skein":
    springer_tworow.calibrate(3)
if workload == "cli":
    import springer_tworow.cli  # noqa: E402, F401
    os.mkdir(os.path.join(work, f"setup-cache-{os.getpid()}"))
setup_s, setup_wall_s = time.process_time(), time.monotonic() - spawn

import json  # noqa: E402

import speed  # noqa: E402

if os.path.dirname(os.path.realpath(springer_tworow.__file__)) != os.path.join(
        SRC, "springer_tworow"):
    sys.exit(f"springer_tworow imported from {springer_tworow.__file__}, not from {SRC}")
meter = speed.Meter()
for _ in range(3):
    meter.tick(force=True)
print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s, "speed": meter.samples}))
