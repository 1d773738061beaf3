"""Smoke test of the benchmark: every workload at minimal size, untraced and traced.

Each run must exit 0, report ``correct`` with no failed operation, and print
every metric BENCHMARK.json names for its mode (end-to-end untraced,
per-layer traced), each with its declared unit.  Takes a few minutes.  From the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            for metric in spec[section]:
                unit = printed.get(metric["name"])
                if unit != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} printed with unit "
                                    f"{unit!r}, declared {metric['unit']!r}")
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
