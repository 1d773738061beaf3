"""Print the sha256 of every file the reduced desk pipeline writes, for byte-identity checks.

The pipeline is the benchmark's distance-stream run (``desk_run_config("distance-stream",
smoke=False)`` in ``perfbench/workloads.py``) at seed 0.  Each of its five stages,
``synth-data``, ``pretrain``, ``train-jnd``, ``finetune`` and ``eval``, runs as a fresh
``python -m cdpam.cli`` process on the package of the checkout ``--src``, with
``CDPAM_THREADS`` set to ``--threads``.  Outputs go under ``runs/pipeline_hashes`` in
the working directory, removed first, and one ``sha256  path`` line is printed per file,
the path relative to the run directory.  The loss logs are hashed without their
``wall_ms`` column, the one field that differs between two runs of the same code.

Two checkouts that print the same lines at the same thread count write the same bytes;
BLAS builds differ, so the hashes are only comparable on one machine.  From the root of
a checkout:

    python3 tools/pipeline_hashes.py --src /path/to/other/checkout --threads 2

Exits 1, printing the stage's stderr, if a stage fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ("synth-data", "pretrain", "train-jnd", "finetune", "eval")
SEED = 0
# the manifests echo the run directory, so every run names it by this same relative path
OUT = os.path.join("runs", "pipeline_hashes")


def run_config(src: str) -> dict:
    """The distance-stream pipeline config, as `src`'s benchmark defines it."""
    code = ("import json, workloads; "
            "print(json.dumps(workloads.desk_run_config('distance-stream', smoke=False)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(src, "src"), os.path.join(src, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def file_hash(path: str) -> str:
    """sha256 of the file; a loss log (``*_log.csv``) is hashed without ``wall_ms``."""
    if not path.endswith("_log.csv"):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    text = io.StringIO()
    csv.writer(text).writerows([cell for i, cell in enumerate(row) if i != drop]
                               for row in rows)
    return hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=ROOT, help="checkout whose package runs")
    parser.add_argument("--threads", default="1", help="CDPAM_THREADS for every stage")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)

    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    config_path = os.path.join(OUT, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(run_config(src), fh)
    run_dir = os.path.join(OUT, "run")
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"), CDPAM_THREADS=args.threads)
    for stage in STAGES:
        cmd = [sys.executable, "-m", "cdpam.cli", stage, "--config", config_path,
               "--out", run_dir, "--seed", str(SEED)]
        if stage in ("pretrain", "train-jnd", "finetune"):
            cmd.append("--quiet")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{stage} exited with {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1

    for dirpath, dirnames, filenames in os.walk(run_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            print(f"{file_hash(path)}  {os.path.relpath(path, run_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
