"""Set-up probe: a fresh interpreter imports gabor_recover and runs one op.

Usage: ``python3 perfbench/probe.py <workload> <seed> <out_dir>``. The caller
times the whole process, interpreter start-up included.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gabor_recover  # noqa: E402,F401  (the import is part of what set-up measures)
import workloads  # noqa: E402


if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.make(name, out_dir).probe_op(seed)
