"""Seeded random generation of test values.

Coefficients are small rationals (numerators in -9..9, denominators in
1..9): large enough to exercise every code path, small enough to keep
exact arithmetic fast.  The float backend draws the same rationals and
converts them, so float magnitudes stay below 10.

All draws come from ``rng.getrandbits``, made exactly as CPython's
`random.Random.randint` and `random.Random.choice` make them: an integer
below n is one ``getrandbits(n.bit_length())``, drawn again while it is
n or more.  So a seeded `random.Random` yields, draw for draw, the values
and the final state that ``randint``/``choice`` calls would, and
``octalg check --seed S`` checks the same values it always has.  The same
holds for a subclass that overrides ``getrandbits``, through which
``randint`` then draws too, but not for one that overrides only
``random()``: its ``randint`` draws from ``random()`` instead.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .brackets import WORD_SYMBOLS
from .core import DIM, EXACT, FLOAT, Octonion, _new

DEFAULT_SEED = 12345

NUMERATOR_RANGE = (-9, 9)
DENOMINATOR_RANGE = (1, 9)

# Each range as an offset plus a draw below its span, and the bits drawn
# per attempt, as randint(low, high) computes them.
_NUM_LOW = NUMERATOR_RANGE[0]
_NUM_SPAN = NUMERATOR_RANGE[1] - _NUM_LOW + 1
_NUM_BITS = _NUM_SPAN.bit_length()
_DEN_LOW = DENOMINATOR_RANGE[0]
_DEN_SPAN = DENOMINATOR_RANGE[1] - _DEN_LOW + 1
_DEN_BITS = _DEN_SPAN.bit_length()


def _below(getrandbits, n: int) -> int:
    """A uniform int in 0..n-1, drawn as `random.Random` draws it for
    ``randint`` and ``choice``; ``n`` must be at least 1."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_scalar(rng: random.Random, backend: str = EXACT, nonzero: bool = False):
    getrandbits = rng.getrandbits
    while True:
        p = _NUM_LOW + _below(getrandbits, _NUM_SPAN)
        q = _DEN_LOW + _below(getrandbits, _DEN_SPAN)
        if p or not nonzero:
            break
    # int / int is correctly rounded, as float(Fraction(p, q)) is.
    return p / q if backend == FLOAT else Fraction(p, q)


def random_octonion(rng: random.Random, backend: str = EXACT, nonzero: bool = False) -> Octonion:
    """One random octonion; with nonzero=True, zero draws are rejected and
    redrawn (needed whenever an inverse will be taken).

    Each coefficient draws as `random_scalar` does, numerator then
    denominator, and the value is built from the draws without a Fraction.
    """
    getrandbits = rng.getrandbits
    while True:
        ps = []
        qs = []
        for _ in range(DIM):
            # `_below`, inlined: this loop is the hot path of every check.
            p = getrandbits(_NUM_BITS)
            while p >= _NUM_SPAN:
                p = getrandbits(_NUM_BITS)
            q = getrandbits(_DEN_BITS)
            while q >= _DEN_SPAN:
                q = getrandbits(_DEN_BITS)
            ps.append(p + _NUM_LOW)
            qs.append(q + _DEN_LOW)
        if not nonzero or any(ps):
            break
    if backend == FLOAT:
        # int / int is correctly rounded, as float(Fraction(p, q)) is.
        return _new([p / q for p, q in zip(ps, qs)], None)
    d = lcm(*qs)
    return _new([p * (d // q) for p, q in zip(ps, qs)], d)


_WORD_LETTERS = WORD_SYMBOLS + ("scalar",)


def random_word(rng: random.Random, max_length: int = 8) -> list:
    """A random two-generator word of length 1..max_length."""
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    getrandbits = rng.getrandbits
    word = []
    for _ in range(1 + _below(getrandbits, max_length)):
        letter = _WORD_LETTERS[_below(getrandbits, len(_WORD_LETTERS))]
        if letter == "scalar":
            word.append(random_scalar(rng, EXACT, nonzero=True))
        else:
            word.append(letter)
    return word
