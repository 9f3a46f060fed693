"""Time one cold set-up of a workload and print it in seconds.

Set-up is importing `projdunkl` and running the workload's warm-up calls.
Run from the root of a checkout: python3 bench/setup_probe.py <workload>
"""
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, import_projdunkl

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]]
    t0 = perf_counter()
    pd = import_projdunkl(Path.cwd())
    workload.warm_up(pd)
    print(repr(perf_counter() - t0))
