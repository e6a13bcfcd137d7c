"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed>

Prints the seconds taken by the workload's imports plus its input
generation.  For ``cli`` that is the time of ``import dotcumulants.cli``.
Interpreter start-up is not included (see ``python.start_s``).
"""

import importlib
import sys
import time

import workloads

name, seed = sys.argv[1], int(sys.argv[2])
sys.path.insert(0, workloads.SRC)
t0 = time.perf_counter()
for module in workloads.WORKLOADS[name].modules:
    importlib.import_module(module)
if name != "cli":
    workloads.WORKLOADS[name](seed)
print(repr(time.perf_counter() - t0))
