"""Shared hypothesis strategies and small helpers."""

from hypothesis import strategies as st

from octalg import AssociatorMatrix, Octonion

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9)

octonions = st.builds(Octonion, st.lists(coefficients, min_size=8, max_size=8))

nonzero_octonions = octonions.filter(bool)


def unit(k: int) -> Octonion:
    return Octonion.unit(k)


def perturbed(m: AssociatorMatrix, i: int, j: int, k: int, delta: float) -> AssociatorMatrix:
    """A copy of float matrix ``m`` with ``delta`` added to coefficient k of
    entry (i, j)."""
    flat = m.flat.copy()
    flat[i * m.size + j, k] += delta
    return AssociatorMatrix(n=m.n, trees=m.trees, flat=flat)
