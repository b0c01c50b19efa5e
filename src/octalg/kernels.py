"""Batched float64 octonion kernels.

The float-backend order-conversion matrix operates on ``(n, 8)``
coefficient arrays, from its computation through its verification.  This
is the only module of the package that imports numpy, so exact-backend
callers never load it.

`multiply` runs `core._product`, the product generated from the derived
table, on coefficient columns, and `norm_squared` runs
`core._sum_of_squares` on them; each output column is the same ordered
sum the scalar backend computes, so the two agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Octonion, _norm_range_error, _product, _sum_of_squares
from .errors import ZeroInverseError

_ONE = np.array([1.0] + [0.0] * 7)
_CONJUGATE_SIGN = np.array([1.0] + [-1.0] * 7)


def _as_batch(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 8:
        raise ValueError(f"expected an (n, 8) coefficient array, got shape {arr.shape}")
    return arr


def from_octonions(values: Sequence[Octonion]) -> np.ndarray:
    """Stack octonions into an (n, 8) float64 coefficient array."""
    return np.array([[float(v) for v in x.c] for x in values], dtype=np.float64)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products ``a[k] * b[k]``."""
    a = _as_batch(a)
    b = _as_batch(b)
    if a.shape != b.shape:
        raise ValueError(f"operand shapes differ: {a.shape} vs {b.shape}")
    # The rows of a.T and b.T are coefficient columns.
    return np.stack(_product(a.T, b.T, 0.0), axis=1)


def pairwise_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every pairwise product: row ``i * len(b) + j`` is ``a[i] * b[j]``."""
    a = _as_batch(a)
    b = _as_batch(b)
    return multiply(np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1)))


def conjugate(a: np.ndarray) -> np.ndarray:
    """Row-wise conjugates: the imaginary coefficients negated."""
    out = _as_batch(a).copy()
    out[:, 1:] = -out[:, 1:]
    return out


def norm_squared(a: np.ndarray) -> np.ndarray:
    """Row-wise squared norms, summed in coefficient order; one beyond the
    binary64 range reads inf without a warning, as `Octonion.norm_sq` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _sum_of_squares(_as_batch(a).T)


def inverse(a: np.ndarray) -> np.ndarray:
    """Row-wise inverses.

    The first row that has no inverse is named in the error, as the scalar
    `Octonion.inverse` names its operand: ZeroInverseError for a zero row,
    NonFiniteError for one whose squared norm is not finite or underflows to 0.
    """
    a = _as_batch(a)
    n2 = norm_squared(a)
    invertible = (n2 > 0.0) & (n2 < np.inf)
    if not invertible.all():
        row = int(np.argmin(invertible))
        if not a[row].any():
            raise ZeroInverseError(f"row {row} is the zero octonion and has no inverse")
        raise _norm_range_error(n2[row], f"row {row}")
    return conjugate(a) / n2[:, None]


def conversion_verdicts(entries: np.ndarray, size: int, tolerance: float) -> tuple[bool, bool]:
    """Check a row-major ``(size * size, 8)`` order-conversion matrix M.

    Returns ``(diagonal_ok, symmetry_ok)``: whether every
    ``|M[i,i] - 1| <= tolerance`` and every ``|M[j,i] - conj(M[i,j])| <=
    tolerance``: `Octonion.equals`' rule at scale 1, the scale of entries of
    unit norm, so the verdicts agree with it and a NaN or inf difference fails.
    """
    m = _as_batch(entries).reshape(size, size, 8)
    diagonal = m[np.arange(size), np.arange(size)]
    diagonal_ok = bool(np.all(np.abs(diagonal - _ONE) <= tolerance))
    transposed = m.transpose(1, 0, 2)  # transposed[i, j] is M[j, i]
    symmetry_ok = bool(np.all(np.abs(transposed - m * _CONJUGATE_SIGN) <= tolerance))
    return diagonal_ok, symmetry_ok
