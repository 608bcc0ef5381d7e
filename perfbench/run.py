"""devgraph benchmark launcher.

Usage, from the repository root:

    python3 perfbench/run.py --workload pipeline-m --seed 1 --seconds 3 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 3 --trace 1

Each run is one fresh worker process (perfbench/worker.py) that imports
devgraph from ./src, with BLAS and OpenMP pinned to one thread. The last
line of stdout is the run's result object. `--workload all` runs every
workload in turn and ends with one object over all of them, metric names
prefixed by workload. The workloads are described in perfbench/workloads.py
and the metrics in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pipeline-m", "extract-log", "files-m", "greedy-s")
TIME_LIMIT_S = 175
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    env.update({var: "1" for var in PINNED})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(root: Path, workload: str, args) -> dict | None:
    """Run one workload in a fresh process; echo its report and return its
    result, or None if it failed or ran out of time."""
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=_child_env(root), text=True,
                              capture_output=True, timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(f"perfbench: {workload} exceeded {TIME_LIMIT_S} s\n")
        sys.stderr.write(exc.stderr.decode() if isinstance(exc.stderr, bytes)
                         else exc.stderr or "")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: {workload} worker exited {proc.returncode}\n")
        return None
    sys.stdout.write(proc.stdout)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "devgraph" / "cli.py").is_file():
        sys.stderr.write("perfbench: no devgraph sources under ./src; "
                         "run from the repository root\n")
        return 2

    if args.workload != "all":
        result = run_one(root, args.workload, args)
        return 0 if result is not None else 1

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        started = time.perf_counter()
        result = run_one(root, workload, args)
        if result is None:
            return 1
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{name}": m
                                 for name, m in result["metrics"].items()})
        print(f"perfbench: {workload} took {time.perf_counter() - started:.1f} s")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
