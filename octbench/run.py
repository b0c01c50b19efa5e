"""Benchmark of the octalg package in the checkout this is run from.

    python3 octbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout that holds ``src/octalg`` and
``BENCHMARK.json``.  Workloads (see workloads.py):

* ``check-exact``  - the exact identity suite, one ``run_checks`` per request;
* ``matrix-float`` - in-process ``orders --matrix`` over 7 float factors;
* ``cli-cold``     - one fresh ``python -m octalg.cli`` process per request.

Each workload runs in its own fresh worker process with one closed-loop
client.  With ``--trace 0`` the worker times requests for S seconds with no
tracing, and set-up is repeated in further fresh processes so that
``setup_s`` is a median; these times are scaled for the speed of the shared
host, as hostspeed.py describes, and printed unscaled as well.  With
``--trace 1`` the worker runs each request of a fixed list untraced and then
traced, and reports per-layer metrics, the tracing overhead and a
cross-check against the recorded baseline; spans are written under
``.octbench-traces/``.

Every output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, where the
metrics are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries
of BENCHMARK.json, with their units.  Without a source tree the command
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# A run must end within 180 s; the worker gets what is left of this.
RUN_BUDGET_S = 170


def environment() -> list[str]:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return [
        f"python {platform.python_version()}, numpy {numpy_version}, "
        f"numba importable: {importlib.util.find_spec('numba') is not None}",
        f"cpus available: {len(os.sched_getaffinity(0))}, cpu model: {cpu_model}",
    ]


def child_environment(root: Path) -> dict:
    """The environment for processes that import octalg from root/src."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, mode: str, root: Path, env: dict, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
        "--root", str(root),
    ]
    completed = subprocess.run(
        command, cwd=root, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{mode} worker exited with {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    root = Path.cwd()
    manifest_path = root / "BENCHMARK.json"
    if not (root / "src" / "octalg" / "__init__.py").is_file() or not manifest_path.is_file():
        print(
            f"octbench: {root} holds no src/octalg package or no BENCHMARK.json; "
            "run from the root of an octalg checkout",
            file=sys.stderr,
        )
        return 2
    manifest = json.loads(manifest_path.read_text())
    env = child_environment(root)
    workload = workloads.WORKLOADS[args.workload]

    for line in environment():
        print(line)
    print(f"workload {workload.name}: {workload.why}")

    try:
        if args.trace:
            result = run_worker(args, "traced", root, env, deadline)
            wanted = manifest["per_layer"]
        else:
            setups = [
                run_worker(args, "setup", root, env, deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            result = run_worker(args, "timed", root, env, deadline)
            setups.append(result)
            result["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            result["notes"].append(
                "setup_s is the median of scaled "
                + ", ".join(f"{s['setup_s']:.4f}" for s in setups)
                + " (unscaled " + ", ".join(f"{s['setup_raw_s']:.4f}" for s in setups) + ")"
            )
            wanted = manifest["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"octbench: {exc}", file=sys.stderr)
        return 1

    for note in result["notes"]:
        print(note)
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"octbench: the worker reported no {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
