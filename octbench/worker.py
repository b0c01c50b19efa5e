"""Run one octalg benchmark workload in this (fresh) process.

    python octbench/worker.py --workload NAME --seed N --seconds S --mode MODE

with PYTHONPATH pointing at the checkout's ``src``.  MODE is

* ``setup``: import, generate the first inputs, run and check one untimed
  warm-up request, and report how long that took;
* ``timed``: set up, then send requests one at a time for S seconds (to the
  end of a block) with tracing off, and report the end-to-end metrics;
  set-up and request times are scaled for the host's speed (hostspeed.py);
* ``traced``: set up, run a fixed list of requests once untraced and once
  traced, and report the per-layer metrics.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from tracer import Tracer

perf_counter = time.perf_counter

PROBLEMS_KEPT = 5
PROCESS_SAMPLES = 5
# Operations per row of kernels.multiply as written (64 products, 64 sign
# products, 64 accumulations) and the bytes a row must at least move (two
# 8-double operands in, one out).  Derived from row counts, not measured.
KERNEL_FLOPS_PER_ROW = 192
KERNEL_BYTES_PER_ROW = 3 * 8 * 8


class Outcome:
    """Latencies and failures of a sequence of requests."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.problems = []

    def record(self, seconds: float, problem: str | None) -> None:
        self.latencies.append(seconds)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < PROBLEMS_KEPT:
                self.problems.append(problem)


def attempt(workload, request, outcome: Outcome, tracer: Tracer | None = None) -> None:
    """Send one request, time it, then check its output (untimed)."""
    problem = output = None
    if tracer is not None:
        tracer.enabled = True
    start = perf_counter()
    try:
        if tracer is None:
            output = workload.run(request)
        else:
            with tracer.span("request"):
                output = workload.run_traced(request, tracer)
    except Exception as exc:  # a failed request is counted, not fatal
        problem = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.enabled = False
    if problem is None:
        try:
            problem = workload.check(request, output)
        except Exception as exc:
            problem = f"checking raised {type(exc).__name__}: {exc}"
    outcome.record(seconds, problem)


def setup(workload) -> tuple[float, float, Outcome]:
    """Import the program, prepare inputs and run one checked warm-up request;
    return the seconds that took, unscaled and scaled by reference samples
    taken just before and after."""
    before = hostspeed.sample(workload.reference)
    start = perf_counter()
    workload.setup()
    warmup = Outcome()
    attempt(workload, workload.warmup_request(), warmup)
    seconds = perf_counter() - start
    factor = hostspeed.scale(workload.reference, before, hostspeed.sample(workload.reference))
    return seconds, seconds * factor, warmup


def tail(latencies: list[float], percentile: int) -> tuple[float, int]:
    """The given percentile (interpolated) and how many samples lie above it."""
    value = statistics.quantiles(latencies, n=100, method="inclusive")[percentile - 1]
    return value, sum(latency > value for latency in latencies)


def timed(workload, seconds: int) -> dict:
    """Send whole blocks of requests for `seconds`, with a reference sample
    (see hostspeed.py) before the first request and after each.  Every
    latency is scaled by the two samples around it."""
    outcome = Outcome()
    requests = workload.requests()
    reference = workload.reference
    scaled, factors = [], []
    before = hostspeed.sample(reference)
    start = perf_counter()
    while True:
        for _ in range(workload.block):
            attempt(workload, next(requests), outcome)
            after = hostspeed.sample(reference)
            factors.append(hostspeed.scale(reference, before, after))
            scaled.append(outcome.latencies[-1] * factors[-1])
            before = after
        if perf_counter() - start >= seconds:
            break
    attempted = len(outcome.latencies)
    value, beyond = tail(scaled, workload.tail_percentile)
    return {
        "attempted": attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {
            "throughput_rps": attempted / sum(scaled),
            "latency_p50_s": statistics.median(scaled),
            "latency_tail_s": value,
            "peak_rss_mb": workload.peak_rss_kib() / 1024.0,
            "ok_share": 1.0 - outcome.failed / attempted,
        },
        "notes": [
            f"times are scaled to a host on which the {reference} reference takes "
            f"{hostspeed.NOMINAL_S[reference]} s; scale factor over {attempted} requests: "
            f"median {statistics.median(factors):.4f}, "
            f"range {min(factors):.4f}-{max(factors):.4f}",
            f"unscaled: throughput {attempted / sum(outcome.latencies):.4f} requests/s, "
            f"p50 {statistics.median(outcome.latencies):.6f} s, "
            f"p{workload.tail_percentile} "
            f"{tail(outcome.latencies, workload.tail_percentile)[0]:.6f} s",
            f"latency_tail_s is p{workload.tail_percentile} of {attempted} requests "
            f"({beyond} above it)",
        ],
    }


# -- traced run -------------------------------------------------------------------


def _process_seconds(code: list[str], root: Path) -> float:
    samples = []
    for _ in range(PROCESS_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, *code], cwd=root, check=True, capture_output=True,
                       timeout=workloads.CHILD_TIMEOUT_S)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def _import_times(root: Path) -> dict:
    """Cumulative import seconds of numpy and octalg.cli from -X importtime."""
    samples = {"numpy": [], "octalg.cli": []}
    for _ in range(PROCESS_SAMPLES):
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import octalg.cli"], cwd=root,
            check=True, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S,
        )
        for line in completed.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1e6)
    return {name: statistics.median(values) for name, values in samples.items() if values}


def layer_metrics(tracer: Tracer) -> dict:
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    mul_calls = calls.get("core.mul", 0)
    rows = tracer.rows.get("kernels.multiply", 0)
    metrics = {
        "core.mul.calls": mul_calls,
        "core.mul.self_s": self_s.get("core.mul", 0.0),
        "core.mul.mean_us": total_s.get("core.mul", 0.0) / mul_calls * 1e6 if mul_calls else 0.0,
        "core.inverse.calls": calls.get("core.inverse", 0),
        "core.inverse.self_s": self_s.get("core.inverse", 0.0),
        "core.new.calls": calls.get("core.new", 0),
        "core.equals.calls": calls.get("core.equals", 0),
        "core.equals.self_s": self_s.get("core.equals", 0.0),
        "core.max_denominator_bits": tracer.max_denominator_bits,
    }
    for name in ("multiplicative_associator", "multiplicative_commutator",
                 "schafer_residual", "expand_word"):
        metrics[f"brackets.{name}.calls"] = calls.get(f"brackets.{name}", 0)
        metrics[f"brackets.{name}.self_s"] = self_s.get(f"brackets.{name}", 0.0)
    metrics["trees.evaluate.calls"] = calls.get("trees.evaluate", 0)
    for name in ("evaluate", "enumerate_trees", "associator_matrix", "format_matrix_machine"):
        metrics[f"trees.{name}.self_s"] = self_s.get(f"trees.{name}", 0.0)
    metrics["kernels.multiply.calls"] = calls.get("kernels.multiply", 0)
    metrics["kernels.multiply.rows"] = rows
    metrics["kernels.multiply.self_s"] = self_s.get("kernels.multiply", 0.0)
    metrics["kernels.inverse.self_s"] = self_s.get("kernels.inverse", 0.0)
    metrics["kernels.multiply.flops_computed"] = rows * KERNEL_FLOPS_PER_ROW
    metrics["kernels.multiply.bytes_computed"] = rows * KERNEL_BYTES_PER_ROW
    for name in ("parse_octonion", "format_coefficients", "format_octonion"):
        metrics[f"textform.{name}.calls"] = calls.get(f"textform.{name}", 0)
        metrics[f"textform.{name}.self_s"] = self_s.get(f"textform.{name}", 0.0)
    for name in ("parse_with_info", "eval_expr"):
        metrics[f"exprs.{name}.self_s"] = self_s.get(f"exprs.{name}", 0.0)
    metrics["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return metrics


def traced(workload, seconds: int, root: Path, trace_dir: Path) -> dict:
    requests = workload.requests()
    batch = [next(requests) for _ in range(workload.trace_request_count(seconds))]
    plain, with_trace = Outcome(), Outcome()
    tracer = Tracer()
    tracer.install()
    try:
        # Each request runs untraced and then traced, so that drift in the
        # machine's speed during the run does not show as tracing overhead.
        for k, request in enumerate(batch):
            attempt(workload, request, plain)
            tracer.request = k
            attempt(workload, request, with_trace, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    from octalg import checks

    for name in checks.CHECK_NAMES:
        seconds_spent = 0.0
        if workload.name == "check-exact":
            for seed in batch:
                start = perf_counter()
                checks.run_checks(cases=1, seed=seed, names=[name])
                seconds_spent += perf_counter() - start
        metrics[f"checks.{name}.s"] = seconds_spent
    metrics["cli.interpreter_s"] = _process_seconds(["-c", "pass"], root)
    metrics["cli.import_s"] = _process_seconds(["-c", "import octalg.cli"], root)
    imports = _import_times(root)
    metrics["cli.import.numpy_s"] = imports.get("numpy", 0.0)
    untraced_p50 = statistics.median(plain.latencies)
    traced_p50 = statistics.median(with_trace.latencies)
    metrics["trace.untraced_p50_s"] = untraced_p50
    metrics["trace.traced_p50_s"] = traced_p50
    metrics["trace.overhead_p50_s"] = traced_p50 - untraced_p50
    trace_dir.mkdir(exist_ok=True)
    span_file = trace_dir / f"{workload.name}-seed{workload.seed}.json"
    tracer.write_spans(span_file)
    notes = [
        f"traced {len(batch)} requests; spans in {span_file.relative_to(root)}",
        f"tracing overhead: traced p50 {traced_p50:.6f} s - untraced p50 "
        f"{untraced_p50:.6f} s = {traced_p50 - untraced_p50:+.6f} s",
    ]
    notes += crosscheck(workload.name, tracer, imports)
    return {
        "attempted": len(plain.latencies) + len(with_trace.latencies),
        "failed": plain.failed + with_trace.failed,
        "problems": plain.problems + with_trace.problems,
        "metrics": metrics,
        "notes": notes,
    }


# Rows of the recorded single-run perf_counter baseline: (low, high, unit).
BASELINE = {
    "exact Octonion * Octonion": (358.0, 388.0, "us"),
    "exact inverse()": (81.0, 84.0, "us"),
    "float associator_matrix, n=8": (1.43, 1.43, "s"),
    "import octalg.cli": (0.177, 0.177, "s"),
}


def crosscheck(workload_name: str, tracer: Tracer, imports: dict) -> list[str]:
    """Compare traced numbers with the matching baseline rows; a row off by
    more than 2x is reported, not corrected."""
    measured = {"import octalg.cli": imports.get("octalg.cli")}
    if workload_name == "check-exact":
        for row, name in (("exact Octonion * Octonion", "core.mul"),
                          ("exact inverse()", "core.inverse")):
            if tracer.calls.get(name):
                measured[row] = tracer.total_s[name] / tracer.calls[name] * 1e6
    if workload_name == "matrix-float":
        measured["float associator_matrix, n=8"] = _float_matrix_n8_seconds()
    lines = []
    for row, value in measured.items():
        if value is None:
            continue
        low, high, unit = BASELINE[row]
        ratio = value / low if value < low else value / high if value > high else 1.0
        flag = "  OFF BY MORE THAN 2x" if not 0.5 <= ratio <= 2.0 else ""
        lines.append(
            f"crosscheck {row}: baseline {low:g}-{high:g} {unit}, "
            f"measured {value:.4g} {unit} (x{ratio:.2f}){flag}"
        )
    return lines


def _float_matrix_n8_seconds() -> float:
    """One untraced float associator_matrix over 8 fixed factors, for the
    cross-check against the recorded baseline."""
    import random

    from octalg import sampling, trees
    from octalg.core import FLOAT

    rng = random.Random("float-matrix-n8")
    factors = [sampling.random_octonion(rng, FLOAT, nonzero=True) for _ in range(8)]
    start = perf_counter()
    trees.associator_matrix(factors)
    return perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced"))
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.root)
    setup_raw_s, setup_s, warmup = setup(workload)
    if warmup.failed or args.mode == "setup":
        result = {"attempted": 1, "failed": warmup.failed, "problems": warmup.problems,
                  "metrics": {}, "notes": []}
    elif args.mode == "timed":
        result = timed(workload, args.seconds)
    else:
        result = traced(workload, args.seconds, args.root, args.root / ".octbench-traces")
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
