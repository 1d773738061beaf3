"""cdpam benchmark: one workload per process, result as JSON on the last stdout line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-train|distance-stream \
        --seed N --seconds S --trace 0|1 [--smoke]

Every workload trains the metric through the CLI pipeline and streams
``distance`` calls between its commands, so each prints every metric of
BENCHMARK.json.
``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` first repeats a shorter measurement, then measures again with
spans around every public function of the package and prints the per-layer
metrics plus the tracing overhead.  ``--smoke`` runs every workload on the
smallest datasets, with one pipeline and no reruns, so that smoke.py can run
them all in minutes.

The BLAS pool is pinned to THREADS threads before numpy loads; that is why
every workload run is a fresh process.  The full run record (environment,
sample counts, input repeat shares, output hashes) goes to the line before
the result and to ``.perfbench-work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
WORKLOADS = ("desk-train", "distance-stream")
THREADS = 1  # at most nproc; one thread keeps timings steady on a shared machine
SETUP_PROBES = (2, 1)  # fresh processes before and after the measurement
THREAD_VARS = ("CDPAM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal desk-train datasets")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def declared_units(trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_digest() -> str:
    """sha256 over the package sources: the commit identity in a checkout without git."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cdpam")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {"blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "threads": THREADS, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "seed": seed}


def setup_seconds(ckpt: str, probes: int) -> list:
    """Process start to ready, once per fresh probe process."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, PROBE, ckpt], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def run(args, scratch: str):
    import tracer as tr
    import workloads as wl

    result = wl.Result()
    tracer = tr.Tracer() if args.trace else None
    cfg_path = os.path.join(scratch, "desk-config.json")
    cfg = wl.desk_run_config(args.workload, args.smoke)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)
    ckpt = os.path.join(scratch, "model.ckpt")
    wl.make_checkpoint(args.seed, ckpt)
    inputs = wl.stream_inputs(args.seed,
                              args.seconds * wl.WORKLOADS[args.workload]["stream_share"])
    setup = [] if args.trace else setup_seconds(ckpt, SETUP_PROBES[0])
    key = (f"src={source_digest()[:16]} seed={wl.DESK_SEED} threads={THREADS} "
           f"config={json.dumps(cfg, sort_keys=True)}")
    wl.run_session(args.workload, cfg_path, ckpt, inputs, args.seconds, scratch, key,
                   os.path.join(WORK, "pipeline-hashes.json"), result, args.smoke, tracer)
    if tracer is None:
        setup += setup_seconds(ckpt, SETUP_PROBES[1])
        result.metrics["setup_s"] = statistics.median(setup)
        result.record["setup_probes_s"] = setup
    else:
        result.metrics.update(tr.summarize(tracer))
        result.metrics.update(wl.spot_default())
        tracer.write(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl"))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cdpam", "__init__.py")):
        print(f"error: no cdpam package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, in this process and the probes
        os.environ[var] = str(THREADS)
    sys.path.insert(0, SRC)
    units = declared_units(args.trace)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(WORK, sub), exist_ok=True)
    scratch = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    undeclared = sorted(set(result.metrics) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    unmeasured = sorted(set(units) - set(result.metrics))
    if unmeasured:
        raise RuntimeError(f"declared metrics this run did not measure: {unmeasured}")
    record = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed),
              "attempted": result.attempted, "failed": result.failed,
              "problems": result.problems, **result.record}
    out = {"correct": result.failed == 0, "attempted": result.attempted,
           "failed": result.failed,
           "metrics": {name: {"value": float(value), "unit": units[name]}
                       for name, value in sorted(result.metrics.items())}}
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": out}, fh, indent=1, sort_keys=True)
    for name, metric in out["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
