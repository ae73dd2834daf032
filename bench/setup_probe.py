"""Time-to-ready child of bench/run.py: one cold set-up in a fresh process.

    python3 bench/setup_probe.py <workload> <seed>

Imports the library and builds the workload's inputs, as a run does before
its first sweep, then prints ``ready``.  The parent times the interval from
starting this process to reading that line.
"""

import sys

from workloads import setup

if __name__ == "__main__":
    setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
