"""The three octalg benchmark workloads.

Each workload is closed loop with one client: the next request is sent
only after the previous one has returned and been checked.  Inputs come
from the workload seed alone, and the program receives only the generated
inputs (seeds, operand texts, argv lists).  Requests are generated lazily
between timed requests, so a faster program simply gets more requests.

Nothing here imports octalg at module level: `setup()` does, so the import
is part of the measured set-up time.
"""

from __future__ import annotations

import io
import json
import os
import random
import resource
import select
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracer import TRACE_MARKER

HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 60


class Workload:
    """One named mix of requests.

    A timed run always ends on a block boundary, so every run sees each
    kind of request in the same proportion.  `latency_tail_s` is the fixed
    `tail_percentile`, chosen so that a run has about ten requests or more
    above it; a percentile that followed the number of requests would move
    with the host's speed, between the request classes of a mixed block.
    """

    name = ""
    why = ""
    block = 1
    nominal_block_s = 1.0
    tail_percentile = 80
    # The hostspeed reference that request times are scaled by.
    reference = "task"

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        raise NotImplementedError

    def requests(self):
        """An endless iterator of requests for this seed."""
        raise NotImplementedError

    def warmup_request(self):
        return next(self.requests())

    def run(self, request):
        """Execute one request; this is the timed part."""
        raise NotImplementedError

    def run_traced(self, request, tracer):
        return self.run(request)

    def check(self, request, output) -> str | None:
        """Return a description of what is wrong with the output, or None."""
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        """The peak resident memory of the program so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux

    def trace_request_count(self, seconds: int) -> int:
        """How many requests a traced run makes: fixed by `seconds`, never by
        the clock, so that two traced runs with one seed count the same work."""
        blocks = max(1, round(seconds / 3 / self.nominal_block_s))
        return blocks * self.block


# -- check-exact ----------------------------------------------------------------

# Scalar letters are sparse octonions, which make a word's products several
# times cheaper.  For the two longest word lengths, which carry most of the
# cost, successive blocks cycle through this many scalar letters so that each
# run sees them in about their natural Binomial(L, 1/7) proportions instead of
# whatever a short run happens to draw.
_SCALAR_CYCLE = (1, 0, 2, 1, 0, 3, 1)
# A one-letter word has a single order and checks nothing, so blocks use
# lengths 2..8: seven request classes, and the median request falls inside
# the middle class (length 5) instead of on the edge between two classes.
_WORD_LENGTHS = tuple(range(2, 9))


class CheckExact(Workload):
    name = "check-exact"
    why = (
        "run_checks(cases=1), all 12 identities, exact backend: Fraction arithmetic in "
        "core, brackets and trees.evaluate; bypasses kernels, textform, exprs, cli and import"
    )
    block = len(_WORD_LENGTHS)
    nominal_block_s = 1.8
    # Length-8 words, the top seventh of requests, are the heaviest class;
    # p92 lies inside it, where p90 sat on its lower edge and moved between
    # seeds with the mix of scalar letters there.
    tail_percentile = 92

    def setup(self) -> None:
        from octalg import checks, sampling
        from octalg.core import EXACT

        self.checks = checks
        self.sampling = sampling
        self.exact = EXACT

    def _word_of(self, case_seed: int):
        # Replays the draws run_checks makes for its first bi-associativity
        # case: x, y, then the word.
        rng = random.Random(f"{case_seed}:bi-associativity")
        self.sampling.random_octonion(rng, self.exact, nonzero=True)
        self.sampling.random_octonion(rng, self.exact, nonzero=True)
        return self.sampling.random_word(rng)

    def _seed_for(self, rng: random.Random, length: int, scalars: int | None) -> int:
        """Draw request seeds until the bi-associativity word has the wanted
        length (and number of scalar letters, when given)."""
        while True:
            candidate = rng.getrandbits(62)
            word = self._word_of(candidate)
            if len(word) != length:
                continue
            if scalars is None or sum(not isinstance(s, str) for s in word) == scalars:
                return candidate

    def requests(self):
        # Each block holds one word of every length in a seeded order: 1 to
        # 429 trees per request, so the tail is real traffic, not noise.
        rng = random.Random(f"check-exact:{self.seed}")
        block = 0
        while True:
            lengths = list(_WORD_LENGTHS)
            rng.shuffle(lengths)
            scalars = _SCALAR_CYCLE[block % len(_SCALAR_CYCLE)]
            for length in lengths:
                yield self._seed_for(rng, length, scalars if length >= 7 else None)
            block += 1

    def warmup_request(self):
        return self._seed_for(random.Random(f"check-exact-warmup:{self.seed}"), 5, None)

    def run(self, request):
        return self.checks.run_checks(cases=1, seed=request)

    def check(self, request, output) -> str | None:
        names = [report.name for report in output]
        if names != list(self.checks.CHECK_NAMES):
            return f"seed {request}: reports for {names}"
        failed = [report.name for report in output if not report.ok]
        if failed:
            return f"seed {request}: identities failed: {failed}"
        return None


# -- matrix-float ----------------------------------------------------------------

_MATRIX_FACTORS = 7
# Fixed (i, j) entries, 0-based, recomputed on the exact backend per request.
_MATRIX_SAMPLE = ((0, 0), (0, 131), (131, 0), (45, 88), (100, 3), (66, 66), (7, 120), (131, 131))
_FLOAT_TOLERANCE = 1e-12


def _operand_text(rng, sampling, textform, exact) -> str:
    # A one-term text like "-3e5" would read as an option to argparse; such
    # draws (about 1 in 10^8) are redrawn.  Texts with spaces are positional.
    while True:
        text = textform.format_octonion(sampling.random_octonion(rng, exact, nonzero=True))
        if not text.startswith("-") or " " in text:
            return text


class MatrixFloat(Workload):
    name = "matrix-float"
    why = (
        "in-process orders --matrix, 7 random factors, float backend: Octonion objects, "
        "kernels, textform formatting, cli verification; bypasses exact arithmetic, exprs "
        "and import"
    )
    block = 1
    nominal_block_s = 0.7

    def setup(self) -> None:
        from octalg import cli, sampling, textform, trees
        from octalg.core import EXACT

        self.cli = cli
        self.sampling = sampling
        self.textform = textform
        self.trees = trees
        self.exact = EXACT
        self.orders = trees.CATALAN[_MATRIX_FACTORS - 1]

    def requests(self):
        rng = random.Random(f"matrix-float:{self.seed}")
        while True:
            yield [
                _operand_text(rng, self.sampling, self.textform, self.exact)
                for _ in range(_MATRIX_FACTORS)
            ]

    @staticmethod
    def argv(texts) -> list[str]:
        return ["orders", *texts, "--matrix", "--backend", "float", "--format", "machine"]

    def run(self, request):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = self.cli.main(self.argv(request))
        return code, buffer.getvalue()

    def check(self, request, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code} for {request}"
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()
        t = self.orders
        expected = 2 + t + t * t + 2
        if len(lines) != expected:
            return f"{len(lines)} lines, expected {expected}"
        if lines[-2:] != ["verify:diagonalall1\tOK", "verify:entry(j,i)=entry(i,j)~\tOK"]:
            return f"verification lines {lines[-2:]}"
        factors = [self.textform.parse_octonion(text, self.exact) for text in request]
        for i, j in _MATRIX_SAMPLE:
            fields = lines[2 + t + i * t + j].split("\t")
            if fields[:2] != [str(i + 1), str(j + 1)]:
                return f"entry line for ({i + 1}, {j + 1}) reads {fields[:2]}"
            got = [float(v) for v in fields[2].split(",")]
            want = [float(v) for v in self.trees.generalized_associator(i, j, factors).c]
            tolerance = _FLOAT_TOLERANCE * max(1.0, *(abs(v) for v in want))
            if any(abs(g - w) > tolerance for g, w in zip(got, want)):
                return f"entry ({i + 1}, {j + 1}) is {got}, exact {want}"
        return None


# -- cli-cold -------------------------------------------------------------------

# Requests whose output is known without computing it.
_KNOWN_ANSWERS = (
    (["eval", "(e1*e2)*e4"], "e7\n"),
    (["commutator", "e1", "e2"], "-1\n(x*y)*c = y*x: OK\n"),
    (
        ["associator", "e1", "e2", "e4", "--format", "machine"],
        "result\t-1,0,0,0,0,0,0,0\n"
        "verify:((x*y)*z)*a=x*(y*z)\tOK\n"
        "verify:(x*y)*z=(x*(y*z))*a~\tOK\n",
    ),
)


class CliCold(Workload):
    name = "cli-cold"
    why = (
        "a fresh python -m octalg.cli process per request (eval, commutator, associator, "
        "4-factor exact orders --matrix): start-up, import, argparse, parsing; bypasses "
        "kernels and heavy arithmetic"
    )
    block = 7
    nominal_block_s = 2.3
    reference = "process"
    peak_child_kib = 0

    def setup(self) -> None:
        from octalg import cli, sampling, textform
        from octalg.core import EXACT

        self.cli = cli
        self.sampling = sampling
        self.textform = textform
        self.exact = EXACT

    def requests(self):
        rng = random.Random(f"cli-cold:{self.seed}")
        rotation = 0
        while True:
            a, b, c, d = (
                _operand_text(rng, self.sampling, self.textform, self.exact) for _ in range(4)
            )
            yield ["eval", f"({a})*(({b})~*({c})^-1)"], None
            yield ["eval", "x*y~*z^-1", "--let", f"x={a}", "--let", f"y={b}", "--let", f"z={c}"], None
            yield ["commutator", a, b], None
            yield ["associator", a, b, c, "--multiplicative"], None
            yield ["associator", a, b, c, "--additive"], None
            yield ["orders", a, b, c, d, "--matrix", "--format", "machine"], None
            yield _KNOWN_ANSWERS[rotation % len(_KNOWN_ANSWERS)]
            rotation += 1

    def _spawn(self, command):
        completed = subprocess.run(
            command, cwd=self.root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        return completed.returncode, completed.stdout, completed.stderr

    def run(self, request):
        """Run the command line in a child process and return its exit code
        and standard output.  The child is reaped with wait4 for its own peak
        memory, which the reference processes of hostspeed.py do not touch."""
        argv, _ = request
        child = subprocess.Popen(
            [sys.executable, "-m", "octalg.cli", *argv], cwd=self.root,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        chunks = []
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        with child.stdout:
            while True:
                left = max(0.0, deadline - time.monotonic())
                if not select.select([child.stdout], [], [], left)[0]:
                    child.kill()
                    break
                chunk = os.read(child.stdout.fileno(), 65536)
                if not chunk:
                    break
                chunks.append(chunk)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kib = max(self.peak_child_kib, usage.ru_maxrss)
        return child.returncode, b"".join(chunks).decode()

    def peak_rss_kib(self) -> int:
        return self.peak_child_kib

    def run_traced(self, request, tracer):
        argv, _ = request
        code, stdout, stderr = self._spawn([sys.executable, str(HERE / "traced_cli.py"), *argv])
        last = stderr.rstrip("\n").rsplit("\n", 1)[-1]
        if last.startswith(TRACE_MARKER):
            tracer.merge(json.loads(last[len(TRACE_MARKER):]), tracer.request)
        else:
            raise RuntimeError(f"traced child wrote no trace summary: {stderr[-500:]}")
        return code, stdout

    def check(self, request, output) -> str | None:
        argv, known = request
        code, stdout = output
        if code != 0:
            return f"exit code {code} for {argv}"
        buffer = io.StringIO()
        with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
            in_process = self.cli.main(list(argv))
        if in_process != 0 or stdout != buffer.getvalue():
            return f"process output differs from in-process cli.main for {argv}"
        if known is not None and stdout != known:
            return f"{argv} printed {stdout!r}, expected {known!r}"
        return None


WORKLOADS = {w.name: w for w in (CheckExact, MatrixFloat, CliCold)}

