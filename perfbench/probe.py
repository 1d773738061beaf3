"""Set-up probe: a fresh process gets one workload ready, prints "ready", exits.

run.py times each probe from process start to that line.  Usage:
``python3 perfbench/probe.py CHECKPOINT``.
"""

import os
import sys


def main() -> int:
    path = sys.argv[1]
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                    "src"))
    import workloads

    workloads.ready(path)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
