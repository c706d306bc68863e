"""Time hocofin's set-up in a fresh interpreter and print it in seconds
on refclock's clock: ``import hocofin.cli`` plus building one workload's
inputs, the cost every CLI call pays before it computes anything.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Run from the root of a hocofin checkout; run.py calls it.
"""

import os
import random
import sys

import refclock

workload, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
refclock.start()
t0 = refclock.now()
import hocofin.cli  # noqa: E402,F401

t1 = refclock.now()
import workloads  # noqa: E402  (hocofin is loaded, so this is the benchmark's own code)

t2 = refclock.now()
workloads.build(workload, random.Random(seed))
t3 = refclock.now()
refclock.stop()
print((t1 - t0) + (t3 - t2))
