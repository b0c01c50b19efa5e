"""Seeded sampling: the random_octonion stream is pinned, since the
acceptance suite's 1000-case streams and the benchmark draw from it."""

import hashlib
import random
from fractions import Fraction

import pytest

from octalg import Octonion
from octalg.sampling import DENOMINATOR_RANGE, NUMERATOR_RANGE, random_octonion


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
    # A stream whose first draw is zero: all 8 numerators come out 0.
    class ZeroFirst(random.Random):
        def __init__(self):
            super().__init__(7)
            self.calls = 0

        def randint(self, a, b):
            self.calls += 1
            if self.calls <= 16 and (a, b) == NUMERATOR_RANGE:
                return 0
            return super().randint(a, b)

    fast, slow = ZeroFirst(), ZeroFirst()
    x = random_octonion(fast, "exact", nonzero=True)
    assert x and x == _fraction_octonion(slow, "exact", True)
    assert fast.calls == slow.calls == 32
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
