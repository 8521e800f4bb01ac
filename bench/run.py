#!/usr/bin/env python3
"""Run one benchmark workload in a fresh process and print its result.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {validation,road_grid,run_bridge} \
        --seed N --seconds S --trace {0,1}

The workload runs in a child interpreter (bench/workload.py) that imports
soco from this checkout's ``src/``, with BLAS and OpenMP pools limited to
one thread.  The last line of standard output is the workload's JSON
result.  The exit code is not 0, and nothing is printed to standard output,
when the checkout has no soco sources, the child fails, or it overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("validation", "road_grid", "run_bridge")
CHILD_TIMEOUT_S = 170
# numpy's thread pools would otherwise contend with the model-server child
# on a two-core machine and turn scheduling noise into timing noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "soco" / "__init__.py").is_file():
        print(f"no soco sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [
        sys.executable,
        str(BENCH_DIR / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"workload {args.workload} overran {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"workload {args.workload} failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"malformed workload result: {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
