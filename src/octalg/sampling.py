"""Seeded random generation of test values.

Coefficients are small rationals (numerators in -9..9, denominators in
1..9): large enough to exercise every code path, small enough to keep
exact arithmetic fast.  The float backend draws the same rationals and
converts them, so float magnitudes stay below 10.  All draws go through
`random.Random` instances, so a fixed seed reproduces the full stream.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .core import DIM, EXACT, FLOAT, Octonion, _new

DEFAULT_SEED = 12345

NUMERATOR_RANGE = (-9, 9)
DENOMINATOR_RANGE = (1, 9)


def random_scalar(rng: random.Random, backend: str = EXACT, nonzero: bool = False):
    while True:
        value = Fraction(rng.randint(*NUMERATOR_RANGE), rng.randint(*DENOMINATOR_RANGE))
        if value or not nonzero:
            break
    return float(value) if backend == FLOAT else value


def random_octonion(rng: random.Random, backend: str = EXACT, nonzero: bool = False) -> Octonion:
    """One random octonion; with nonzero=True, zero draws are rejected and
    redrawn (needed whenever an inverse will be taken).

    Each coefficient draws as `random_scalar` does, numerator then
    denominator, and the value is built from the draws without a Fraction.
    """
    randint = rng.randint
    while True:
        draws = [
            (randint(*NUMERATOR_RANGE), randint(*DENOMINATOR_RANGE)) for _ in range(DIM)
        ]
        if not nonzero or any(p for p, _ in draws):
            break
    if backend == FLOAT:
        # int / int is correctly rounded, as float(Fraction(p, q)) is.
        return _new([p / q for p, q in draws], None)
    d = lcm(*(q for _, q in draws))
    return _new([p * (d // q) for p, q in draws], d)


_WORD_LETTERS = ("x", "y", "x~", "y~", "x^-1", "y^-1", "scalar")


def random_word(rng: random.Random, max_length: int = 8) -> list:
    """A random two-generator word of length 1..max_length."""
    length = rng.randint(1, max_length)
    word = []
    for _ in range(length):
        letter = rng.choice(_WORD_LETTERS)
        if letter == "scalar":
            word.append(random_scalar(rng, EXACT, nonzero=True))
        else:
            word.append(letter)
    return word
