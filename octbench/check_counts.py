"""The benchmark's own test: traced counts repeat exactly.

    python3 octbench/check_counts.py [--seed N] [--seconds S] [WORKLOAD ...]

run from the root of an octalg checkout.  For each workload (default: all)
it makes two traced runs with the same seed and fails unless the count
metrics below agree exactly, so that a change can name a count beforehand
and report it as a count.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

COUNTS = (
    "core.mul.calls",
    "core.inverse.calls",
    "core.new.calls",
    "trees.evaluate.calls",
    "kernels.multiply.rows",
)


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    status = 0
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        same = first == second
        print(f"{workload}: {'identical' if same else 'DIFFERENT'} {first}"
              + ("" if same else f" then {second}"))
        status = status or (0 if same else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
