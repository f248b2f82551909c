"""One set-up in a fresh interpreter: import transitq and build a workload's inputs.

    python3 perfbench/probe.py <workload> <seed> <scratch-dir>

The caller times the whole process.
"""

import os
import sys
from pathlib import Path

import workloads


def main() -> None:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    ctx = workloads.Context(Path(__file__).resolve().parent.parent, scratch,
                            dict(os.environ))
    workloads.WORKLOADS[name](ctx, seed)


if __name__ == "__main__":
    main()
