"""Shared hypothesis strategies and small helpers."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from octalg import AssociatorMatrix, Octonion

# Every p/q with 1 <= q <= 9 and |p/q| <= 9, drawn without st.fractions,
# whose drawing dominates the suite's run time.
coefficients = st.integers(1, 9).flatmap(
    lambda d: st.integers(-9 * d, 9 * d).map(lambda n: Fraction(n, d))
)

octonions = st.tuples(*[coefficients] * 8).map(Octonion)

nonzero_octonions = octonions.filter(bool)

# Float operands whose products stay finite, and those that overflow.
float_octonions = st.tuples(
    *[st.floats(allow_nan=False, allow_infinity=False, width=64)] * 8
).map(Octonion)

backends = st.sampled_from(["exact", "float"])

# Any text, and text over the characters of literals and expressions.
source_text = st.text() | st.text(alphabet="0123456789e./+-*()~^ xyE_\t")


def unit(k: int) -> Octonion:
    return Octonion.unit(k)


def perturbed(m: AssociatorMatrix, i: int, j: int, k: int, delta: float) -> AssociatorMatrix:
    """A copy of float matrix ``m`` with ``delta`` added to coefficient k of
    entry (i, j)."""
    flat = m.flat.copy()
    flat[i * m.size + j, k] += delta
    return AssociatorMatrix(n=m.n, products=m.products, flat=flat)


def float_edge_operands() -> list[Octonion]:
    """Signed zeros, subnormals, +-1e154 (products near the overflow
    threshold), an operand holding inf and NaN from overflow times e1, and
    full-precision values whose sums round differently in another order."""
    big = Octonion([1e200] + [0.0] * 7)
    rng = random.Random("generated-product")
    return [
        Octonion([0.0, -0.0, 1.0, -1.0, 0.0, 2.5, -0.0, 0.0]),
        Octonion([-0.0] * 8),
        Octonion([5e-324, -1e-310, 1e-300, 0.0, -2.2e-308, 1.0, -0.0, 3e-320]),
        Octonion([1e154, -1e154, 0.0, 1e154, -0.0, 1.0, 1e154, -1e154]),
        Octonion([-1e154, 1e154, 1e154, -1e154, 1e154, 0.0, -1e154, 1e154]),
        (big * big) * Octonion.unit(1, "float"),
    ] + [Octonion([rng.uniform(-9.0, 9.0) for _ in range(8)]) for _ in range(5)]
