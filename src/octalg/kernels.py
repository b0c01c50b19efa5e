"""Batched float64 octonion kernels.

The float-backend order-conversion matrix operates on ``(n, 8)``
coefficient arrays.  This is the only module of the package that knows
that layout or imports numpy, so exact-backend callers never load it.

Every kernel accumulates coefficients in the same index order as the
scalar float backend, so the two paths agree bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Octonion, structure_table
from .errors import ZeroInverseError

_index_rows, _sign_rows = structure_table()
MUL_INDEX = np.array(_index_rows, dtype=np.int64)
MUL_SIGN = np.array(_sign_rows, dtype=np.float64)


def _as_batch(a) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 8:
        raise ValueError(f"expected an (n, 8) coefficient array, got shape {arr.shape}")
    return arr


def from_octonions(values: Sequence[Octonion]) -> np.ndarray:
    """Stack octonions into an (n, 8) float64 coefficient array."""
    return np.array([[float(v) for v in x.c] for x in values], dtype=np.float64)


def to_octonions(batch: np.ndarray) -> list[Octonion]:
    """Wrap the rows of an (n, 8) array as float-backend octonions."""
    return [Octonion([float(v) for v in row]) for row in _as_batch(batch)]


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
    """Row-wise inverses; a zero row raises ZeroInverseError naming it."""
    n2 = norm_squared(a)
    if np.any(n2 == 0.0):
        row = int(np.argmax(n2 == 0.0))
        raise ZeroInverseError(f"row {row} is the zero octonion and has no inverse")
    return conjugate(a) / n2[:, None]
