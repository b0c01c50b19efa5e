"""Shared hypothesis strategies and small helpers."""

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
    return AssociatorMatrix(n=m.n, trees=m.trees, flat=flat)
