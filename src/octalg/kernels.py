"""Batched float64 octonion kernels.

The float-backend order-conversion matrix operates on ``(n, 8)``
coefficient arrays, from its computation through its verification and
its formatting.  This is the only module of the package that imports
numpy, so exact-backend callers never load it.

`multiply` runs `core._product`, the product generated from the derived
table, on coefficient columns, and `norm_squared` runs
`core._sum_of_squares` on them; each output column is the same ordered
sum the scalar backend computes, so the two agree bit for bit.  `multiply`
broadcasts its operands, so `pairwise_products` forms every ``a_i * b_j``
term as an outer product of two column views, with no repeated operand rows.
Its result is stored in coefficient planes: each of the 8 sums is one
contiguous row of an ``(8, rows)`` buffer, and the ``(rows, 8)`` result is
that buffer's transpose, a view.  `conversion_verdicts` reads a matrix as
those planes, and `null_separated` lays rows out for one flat text dump.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Octonion, _MIN_NORMAL, _product, _range_error, _sum_of_squares
from .errors import ZeroInverseError

_ONE = np.array([1.0] + [0.0] * 7)


def _as_batch(a, broadcast: bool = False) -> np.ndarray:
    """``a`` as float64 coefficient rows: an ``(n, 8)`` array, or with
    ``broadcast`` any ``(..., 8)`` array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.shape[-1:] != (8,) or not (broadcast or arr.ndim == 2):
        raise ValueError(f"expected an (n, 8) coefficient array, got shape {arr.shape}")
    return arr


def from_octonions(values: Sequence[Octonion]) -> np.ndarray:
    """Stack octonions into an (n, 8) float64 coefficient array, ``(0, 8)``
    for none: one `np.array` call over the stored coefficients of float
    values, and of exact ones `Octonion.as_float`'s."""
    rows = [x._v if x._d is None else x.as_float()._v for x in values]
    return np.array(rows, dtype=np.float64).reshape(-1, 8)


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of ``(..., 8)`` coefficient arrays whose leading axes
    broadcast against each other, as ``(rows, 8)``: row-wise ``a[k] * b[k]``
    for two ``(n, 8)`` arrays, every ``a[i] * b[j]`` for ``(m, 1, 8)`` by
    ``(1, n, 8)``.  The result is the transpose of an ``(8, rows)`` buffer,
    so each coefficient's values are one contiguous plane."""
    a = _as_batch(a, broadcast=True)
    b = _as_batch(b, broadcast=True)
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"operand shapes differ: {a.shape} vs {b.shape}") from None
    planes = np.empty((8, *shape[:-1]))
    # The rows of moveaxis(x, -1, 0) are coefficient columns, views of x.
    columns = _product(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0), 0.0)
    for plane, column in zip(planes, columns):
        plane[...] = column
    return planes.reshape(8, -1).T


def pairwise_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every pairwise product: row ``i * len(b) + j`` is ``a[i] * b[j]``,
    one broadcast `multiply` call that copies neither operand."""
    return multiply(_as_batch(a)[:, None], _as_batch(b)[None, :])


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
    NonFiniteError for one whose squared norm is not finite, is subnormal or
    underflows to 0.
    """
    a = _as_batch(a)
    n2 = norm_squared(a)
    invertible = (n2 >= _MIN_NORMAL) & (n2 < np.inf)
    if not invertible.all():
        row = int(np.argmin(invertible))
        if not a[row].any():
            raise ZeroInverseError(f"row {row} is the zero octonion and has no inverse")
        raise _range_error(f"the squared norm of row {row}", n2[row])
    return conjugate(a) / n2[:, None]


def conversion_verdicts(entries: np.ndarray, size: int, tolerance: float) -> tuple[bool, bool]:
    """Check a row-major ``(size * size, 8)`` order-conversion matrix M.

    Returns ``(diagonal_ok, symmetry_ok)``: whether every
    ``|M[i,i] - 1| <= tolerance`` and every ``|M[j,i] - conj(M[i,j])| <=
    tolerance``: `Octonion.equals`' rule at scale 1, the scale of entries of
    unit norm, so the verdicts agree with it and a NaN or inf difference fails.

    M is read as 8 ``(size, size)`` coefficient planes, views of ``entries``
    (contiguous ones for a `multiply` result): the diagonal of plane 0 must
    be 1 and that of every other plane 0, and plane 0 must be symmetric and
    planes 1 to 7 antisymmetric.  The differences are formed in place, in
    one temporary the size of M.
    """
    planes = _as_batch(entries).reshape(size, size, 8).transpose(2, 0, 1)
    diagonal = planes.diagonal(axis1=1, axis2=2)  # diagonal[k, i] is M[i, i][k]
    diagonal_ok = bool(np.all(np.abs(diagonal - _ONE[:, None]) <= tolerance))
    difference = np.empty(planes.shape)
    transposed = planes.transpose(0, 2, 1)  # transposed[k, i, j] is M[j, i][k]
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN, and fails
        np.subtract(transposed[0], planes[0], out=difference[0])
        np.add(transposed[1:], planes[1:], out=difference[1:])
    np.abs(difference, out=difference)
    symmetry_ok = bool(np.all(difference <= tolerance))
    return diagonal_ok, symmetry_ok


def null_separated(rows: np.ndarray) -> np.ndarray:
    """The values of ``(m, 8)`` coefficient rows, strided ones included, as
    one flat array with a NaN after each row: a copy, made in one pass."""
    rows = _as_batch(rows)
    out = np.empty((len(rows), 9))
    out[:, :8] = rows
    out[:, 8] = np.nan
    return out.reshape(-1)
