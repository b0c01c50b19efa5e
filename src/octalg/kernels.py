"""Batched float64 octonion kernels.

The float-backend order-conversion matrix operates on ``(n, 8)``
coefficient arrays, from its computation through its verification.  This
is the only module of the package that imports numpy, so exact-backend
callers never load it.

Every kernel accumulates coefficients in the same index order as the
scalar float backend, so the two paths agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Octonion, structure_table
from .errors import NonFiniteError, ZeroInverseError

_index_rows, _sign_rows = structure_table()
MUL_INDEX = np.array(_index_rows, dtype=np.int64)
MUL_SIGN = np.array(_sign_rows, dtype=np.float64)
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
    out = np.zeros_like(a)
    # Accumulation runs in (i, j) order so each output coefficient receives
    # its terms in the same sequence as the scalar float backend.
    for i in range(8):
        for j in range(8):
            out[:, MUL_INDEX[i, j]] += MUL_SIGN[i, j] * (a[:, i] * b[:, j])
    return out


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
    """Row-wise squared norms, summed in coefficient order."""
    a = _as_batch(a)
    acc = a[:, 0] * a[:, 0]
    for k in range(1, 8):
        acc = acc + a[:, k] * a[:, k]
    return acc


def inverse(a: np.ndarray) -> np.ndarray:
    """Row-wise inverses.

    A zero row raises ZeroInverseError, and a row whose squared norm is not
    finite, or underflows to 0 from nonzero coefficients, raises
    NonFiniteError, each naming the row, as the scalar `Octonion.inverse` does.
    """
    a = _as_batch(a)
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = norm_squared(a)
    if np.any(n2 == 0.0):
        row = int(np.argmax(n2 == 0.0))
        if not a[row].any():
            raise ZeroInverseError(f"row {row} is the zero octonion and has no inverse")
        raise NonFiniteError(f"the squared norm of row {row} underflows binary64 to 0")
    finite = np.isfinite(n2)
    if not finite.all():
        row = int(np.argmin(finite))
        raise NonFiniteError(f"the squared norm of row {row} is beyond the binary64 range")
    return conjugate(a) / n2[:, None]


def conversion_verdicts(entries: np.ndarray, size: int, tolerance: float) -> tuple[bool, bool]:
    """Check a row-major ``(size * size, 8)`` order-conversion matrix M.

    Returns ``(diagonal_ok, symmetry_ok)``: whether every
    ``|M[i,i] - 1| <= tolerance`` and every ``|M[j,i] - conj(M[i,j])| <=
    tolerance``, componentwise.  These are the float operations of
    `Octonion.equals`, so the verdicts agree with it, and a NaN or inf
    difference fails.
    """
    m = _as_batch(entries).reshape(size, size, 8)
    diagonal = m[np.arange(size), np.arange(size)]
    diagonal_ok = bool(np.all(np.abs(diagonal - _ONE) <= tolerance))
    transposed = m.transpose(1, 0, 2)  # transposed[i, j] is M[j, i]
    symmetry_ok = bool(np.all(np.abs(transposed - m * _CONJUGATE_SIGN) <= tolerance))
    return diagonal_ok, symmetry_ok
