"""Correction of measured times for the speed of a shared host.

The benchmark runs on a few cores of a shared machine whose speed changes
with other tenants' load, by up to 1.8x within a minute, and much alike for
any Python work that allocates objects.  A raw time then says as much about
the host as about octalg.  So the timed loop samples a fixed reference,
which runs no octalg code, before the first request and after each one, and
reports every time scaled by

    nominal seconds / (mean of the reference samples around the measurement)

that is, in seconds on a host that runs the reference in its nominal time.
Work done in the benchmark's own process is scaled by a reference task run
in that process.  Work done by a fresh child process per request, whose
start-up the host slows in its own way, is scaled by a reference process
that starts Python and imports a few standard modules.

A change to octalg moves the scaled times as it moves the raw ones; a change
in the host's speed moves the reference as well and cancels out.  The raw
times are printed alongside.  Per-layer times of the traced run are raw.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from fractions import Fraction

perf_counter = time.perf_counter

# About the median time of each reference on a 2-vCPU Xeon virtual machine;
# the unit in which scaled times are expressed.  Changing one rescales every
# time reported with that reference.
NOMINAL_S = {"task": 0.012, "process": 0.09}
REPEATS = 3
# What the reference process runs: no octalg, only standard modules that
# the octalg command line also imports.
PROCESS_CODE = "import argparse, fractions, json"
PROCESS_TIMEOUT_S = 60


def reference_task() -> int:
    """Fraction arithmetic, float formatting and short-lived small objects:
    the kinds of work octalg does.  It keeps under 1 MiB alive, so it never
    sets the peak memory of the process it runs in."""
    acc = Fraction(1, 3)
    texts = []
    for i in range(1, 150):
        acc = acc * Fraction(i, i + 2) + Fraction(1, i)
        texts.append(repr(float(acc) * 1.000001))
    total = 0.0
    for _ in range(8):
        rows = [(i, [i * 0.5] * 8, str(i)) for i in range(2000)]
        for row in rows:
            total += sum(row[1])
    return len(texts) + int(total)


def _run_task() -> None:
    # With the garbage collector off, the heap the program left does not count.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        reference_task()
    finally:
        if was_enabled:
            gc.enable()


def _run_process() -> None:
    subprocess.run([sys.executable, "-c", PROCESS_CODE], check=True,
                   capture_output=True, timeout=PROCESS_TIMEOUT_S)


def sample(reference: str) -> float:
    """The median seconds of a few runs of the "task" or "process" reference."""
    run = _run_task if reference == "task" else _run_process
    seconds = []
    for _ in range(REPEATS):
        start = perf_counter()
        run()
        seconds.append(perf_counter() - start)
    return statistics.median(seconds)


def scale(reference: str, before: float, after: float) -> float:
    """The factor for times measured between two samples of a reference."""
    return NOMINAL_S[reference] / ((before + after) / 2)
