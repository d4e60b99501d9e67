"""Times one benchmark set-up in a fresh interpreter and prints seconds:
importing uavmec (with numpy) and building a workload's input pool.

    python3 bench/setup_probe.py WORKLOAD SEED
"""
import sys
import time

import run

run.add_package_source()
t0 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402 - the import is what is timed

WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
