"""Seeded sampling: the random_octonion and random_word streams are pinned,
since the acceptance suite's 1000-case streams and the benchmark draw from
them, and every sampler matches a randint/choice reference draw for draw."""

import hashlib
import random
from fractions import Fraction

import pytest

from octalg import Octonion, sampling
from octalg.sampling import (
    DENOMINATOR_RANGE,
    MAX_WORD_LENGTH,
    NUMERATOR_RANGE,
    random_octonion,
    random_scalar,
    random_word,
)


def _fraction_octonion(rng, backend, nonzero):
    """`random_octonion` restated through Fractions and `Octonion.__init__`:
    one Fraction per coefficient, numerator drawn before denominator."""
    while True:
        coefficients = [
            Fraction(rng.randint(*NUMERATOR_RANGE), rng.randint(*DENOMINATOR_RANGE))
            for _ in range(8)
        ]
        if backend == "float":
            coefficients = [float(c) for c in coefficients]
        value = Octonion(coefficients)
        if value or not nonzero:
            return value


@pytest.mark.parametrize("nonzero", [False, True], ids=["any", "nonzero"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_matches_the_fraction_construction(backend, nonzero):
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(10):
            x = random_octonion(fast, backend, nonzero=nonzero)
            y = _fraction_octonion(slow, backend, nonzero)
            assert (x._v, x._d) == (y._v, y._d)
            assert [float.hex(float(c)) for c in x.c] == [float.hex(float(c)) for c in y.c]
        assert fast.getstate() == slow.getstate()


def test_nonzero_redraws_consume_the_same_stream():
    # A stream whose first 8 numerator draws all map to 0, so the first
    # octonion drawn is zero.  `randint` draws through the overridden
    # `getrandbits` too, so the reference sees the same stream.
    low, high = NUMERATOR_RANGE
    numerator_bits = (high - low + 1).bit_length()
    assert numerator_bits != (DENOMINATOR_RANGE[1] - DENOMINATOR_RANGE[0] + 1).bit_length()

    class ZeroFirst(random.Random):
        def __init__(self):
            super().__init__(7)
            self.calls = 0
            self.zeroed = 0

        def getrandbits(self, k):
            self.calls += 1
            if k == numerator_bits and self.zeroed < 8:
                self.zeroed += 1
                return -low
            return super().getrandbits(k)

    fast, slow = ZeroFirst(), ZeroFirst()
    x = random_octonion(fast, "exact", nonzero=True)
    assert x and x == _fraction_octonion(slow, "exact", True)
    assert fast.zeroed == slow.zeroed == 8
    assert fast.calls == slow.calls >= 32
    assert fast.getstate() == slow.getstate()


def _randint_scalar(rng, backend, nonzero):
    """`random_scalar` restated through `randint` and Fraction."""
    while True:
        value = Fraction(rng.randint(*NUMERATOR_RANGE), rng.randint(*DENOMINATOR_RANGE))
        if value or not nonzero:
            return float(value) if backend == "float" else value


def _randint_word(rng, max_length):
    """`random_word` restated through `randint` and `choice`."""
    letters = ("x", "y", "x~", "y~", "x^-1", "y^-1", "scalar")
    word = []
    for _ in range(rng.randint(1, max_length)):
        letter = rng.choice(letters)
        word.append(_randint_scalar(rng, "exact", True) if letter == "scalar" else letter)
    return word


@pytest.mark.parametrize("nonzero", [False, True], ids=["any", "nonzero"])
@pytest.mark.parametrize("backend", ["exact", "float"])
def test_scalar_matches_randint(backend, nonzero):
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(10):
            x = random_scalar(fast, backend, nonzero=nonzero)
            y = _randint_scalar(slow, backend, nonzero)
            assert type(x) is type(y) and x == y
            if backend == "float":
                assert x.hex() == y.hex()
        assert fast.getstate() == slow.getstate()


@pytest.mark.parametrize("max_length", [1, 3, MAX_WORD_LENGTH, 9])
def test_word_matches_randint_and_choice(monkeypatch, max_length):
    # random_word reads MAX_WORD_LENGTH when called, so patching the constant
    # checks the draw at lengths other than the default one.
    monkeypatch.setattr(sampling, "MAX_WORD_LENGTH", max_length)
    for seed in range(200):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_word(fast) == _randint_word(slow, max_length)
        assert fast.getstate() == slow.getstate()


# sha256 over the first 500 draws of random.Random(20240607), recorded with
# the Fraction-based construction: per draw, repr(ratios()) on exact and the
# comma-joined float.hex coefficients on float, each followed by a newline.
GOLDEN_STREAM = {
    "exact": "7e3bac7c1131c9eab804ae2f63f75f4f009b73e751987bbc60972b5d9c441acb",
    "float": "5f734573f8cb937e279dfdd2b15ed8f72cf8da1f346c29f8a63131b532d4a3e6",
}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_golden_stream(backend):
    rng = random.Random(20240607)
    digest = hashlib.sha256()
    for _ in range(500):
        x = random_octonion(rng, backend)
        if backend == "exact":
            digest.update(repr(x.ratios()).encode())
        else:
            digest.update(",".join(c.hex() for c in x.c).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_STREAM[backend]


# sha256 over the first 500 `random_word` draws of random.Random(20240607)
# (length 1..8), recorded with the randint/choice sampler:
# per draw, repr(word) followed by a newline.
GOLDEN_WORDS = "524032a4b3f68af79bd6f8bf6bf2368d3082a825537adcdc3f269f17b622dbff"


def test_golden_words():
    rng = random.Random(20240607)
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(repr(random_word(rng)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == GOLDEN_WORDS
