"""Time one fresh interpreter's set-up; ``run.py`` starts it as a child.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  The clock starts
before any import but ``time``, so the measured seconds cover every module
hamlab pulls in, building round 0's specs and running each of them with
``stop_after=1`` (the lazy set-up before the first block).  Prints the
seconds as its only line.
"""

import time

started = time.perf_counter()

import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from hamlab import harness
from workloads import round_specs

workload, seed = sys.argv[1], int(sys.argv[2])
for spec in round_specs(workload, seed, 0, HERE):
    harness.run_campaign(replace(spec, checkpoint_path=None), stop_after=1, allow_long=True)
print(time.perf_counter() - started)
