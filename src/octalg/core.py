"""Octonion arithmetic over two scalar backends.

The exact backend stores an octonion as 8 Python ints over one positive
common denominator, reduced so that the denominator and the numerators
share no factor.  A product is then 64 integer multiplications and one
gcd, and every algebraic identity the package verifies can be checked
with tolerance 0.  ``Octonion.c`` presents the coefficients as reduced
`fractions.Fraction` values.  The float backend stores binary64
coefficients and exists for speed; comparisons on it require an explicit
tolerance.

The multiplication table is not hardcoded.  It is derived at import time
by doubling the scalars three times (reals -> complex -> quaternions ->
octonions) with the pair rule

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

so the basis products are a consequence of the construction rather than a
64-entry constant to trust.  Basis order: ``e0`` is the real unit,
``e1..e3`` span the quaternion sublevel, ``e4..e7`` the doubled half.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import (
    BackendMismatchError,
    InvalidToleranceError,
    NonFiniteError,
    ZeroInverseError,
)

Scalar = Union[Fraction, float]

DIM = 8

EXACT = "exact"
FLOAT = "float"

# Comparison tolerance of the float backend when the caller names none.
DEFAULT_FLOAT_TOLERANCE = 1e-12


def require_tolerance(tolerance: Scalar) -> None:
    """Raise InvalidToleranceError unless ``tolerance`` is finite and >= 0."""
    if not 0 <= tolerance < math.inf:
        raise InvalidToleranceError(
            f"tolerance must be a finite number >= 0, got {tolerance}"
        )


def _cd_conjugate(v: tuple) -> tuple:
    return (v[0],) + tuple(-a for a in v[1:])


def _cd_multiply(u: tuple, v: tuple) -> tuple:
    """Multiply two coefficient tuples of equal power-of-two length by the
    doubling rule, recursing down to plain scalar multiplication."""
    n = len(u)
    if n == 1:
        return (u[0] * v[0],)
    h = n // 2
    a, b = u[:h], u[h:]
    c, d = v[:h], v[h:]
    ac = _cd_multiply(a, c)
    db = _cd_multiply(_cd_conjugate(d), b)
    da = _cd_multiply(d, a)
    bc = _cd_multiply(b, _cd_conjugate(c))
    return tuple(p - q for p, q in zip(ac, db)) + tuple(p + q for p, q in zip(da, bc))


def _derive_table() -> tuple[tuple, tuple]:
    index = []
    sign = []
    basis = [tuple(1 if k == i else 0 for k in range(DIM)) for i in range(DIM)]
    for i in range(DIM):
        row_i = []
        row_s = []
        for j in range(DIM):
            prod = _cd_multiply(basis[i], basis[j])
            nonzero = [(k, s) for k, s in enumerate(prod) if s != 0]
            if len(nonzero) != 1 or nonzero[0][1] not in (1, -1):
                raise AssertionError("doubling produced a non-monomial basis product")
            row_i.append(nonzero[0][0])
            row_s.append(nonzero[0][1])
        index.append(tuple(row_i))
        sign.append(tuple(row_s))
    return tuple(index), tuple(sign)


_MUL_INDEX, _MUL_SIGN = _derive_table()


def _table_selfcheck() -> None:
    # e0 must act as a two-sided identity, imaginary units must square to -1
    # and anticommute pairwise, and every row must be a signed permutation.
    # A violation means the doubling rule above was transcribed wrong.
    for j in range(DIM):
        assert _MUL_INDEX[0][j] == j and _MUL_SIGN[0][j] == 1
        assert _MUL_INDEX[j][0] == j and _MUL_SIGN[j][0] == 1
    for i in range(1, DIM):
        assert _MUL_INDEX[i][i] == 0 and _MUL_SIGN[i][i] == -1
        for j in range(1, DIM):
            if i != j:
                assert _MUL_INDEX[i][j] == _MUL_INDEX[j][i] != 0
                assert _MUL_SIGN[i][j] == -_MUL_SIGN[j][i]
    for i in range(DIM):
        assert sorted(_MUL_INDEX[i]) == list(range(DIM))


_table_selfcheck()


def structure_table() -> tuple[tuple, tuple]:
    """Return the derived basis-product table as (index, sign) row tuples.

    ``e_i * e_j == sign[i][j] * e_{index[i][j]}``.
    """
    return _MUL_INDEX, _MUL_SIGN


def cayley_dickson_product(u: Iterable[Scalar], v: Iterable[Scalar]) -> tuple:
    """Multiply two length-8 coefficient tuples directly by the recursive
    doubling rule, bypassing the derived table.  Slow; used to cross-check
    that the table-driven product agrees with the construction."""
    u = tuple(u)
    v = tuple(v)
    if len(u) != DIM or len(v) != DIM:
        raise ValueError("expected length-8 coefficient tuples")
    return _cd_multiply(u, v)


class Octonion:
    """An eight-coefficient number over one scalar backend.

    Instances are immutable; every operation returns a new value, so
    octonions are safe to share between threads.
    """

    # _v: 8 ints (exact) or 8 floats (float).  _d: the positive common
    # denominator of the ints, with gcd(_d, *_v) == 1; None on the float
    # backend, which is how the backend is told apart.
    __slots__ = ("_v", "_d")

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = tuple(coefficients)
        if len(coeffs) != DIM:
            raise ValueError(
                f"octonions take exactly {DIM} coefficients, got {len(coeffs)}"
            )
        if any(isinstance(v, float) for v in coeffs):
            _set_v(self, tuple(float(v) for v in coeffs))
            _set_d(self, None)
            return
        fractions = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        # Each Fraction is reduced, so over the lcm of their denominators
        # the numerators already share no factor with it.
        d = lcm(*(f.denominator for f in fractions))
        _set_v(self, tuple(f.numerator * (d // f.denominator) for f in fractions))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, backend: str = EXACT) -> "Octonion":
        base = 0.0 if backend == FLOAT else 0
        return cls((base,) * DIM)

    @classmethod
    def one(cls, backend: str = EXACT) -> "Octonion":
        return cls.unit(0, backend)

    @classmethod
    def unit(cls, k: int, backend: str = EXACT) -> "Octonion":
        """The basis unit e_k, 0 <= k <= 7."""
        if not 0 <= k < DIM:
            raise ValueError(f"unit index must be in 0..{DIM - 1}, got {k}")
        one = 1.0 if backend == FLOAT else 1
        zero = 0.0 if backend == FLOAT else 0
        return cls(tuple(one if i == k else zero for i in range(DIM)))

    @classmethod
    def from_real(cls, value: Scalar) -> "Octonion":
        """Embed a scalar as a real octonion; backend follows the value type."""
        zero = 0.0 if isinstance(value, float) else 0
        return cls((value,) + (zero,) * (DIM - 1))

    @classmethod
    def parse(cls, text: str, backend: str = EXACT) -> "Octonion":
        from .textform import parse_octonion

        return parse_octonion(text, backend)

    # -- properties ----------------------------------------------------

    @property
    def c(self) -> tuple:
        """The 8 coefficients: floats, or reduced Fractions on the exact backend."""
        d = self._d
        if d is None:
            return self._v
        return tuple(Fraction(n, d) for n in self._v)

    def ratios(self) -> tuple:
        """Exact backend only: the 8 coefficients as reduced ``(numerator,
        denominator)`` int pairs, the values of `c` without building Fractions."""
        d = self._d
        if d is None:
            raise BackendMismatchError("ratios() needs the exact backend")
        pairs = []
        for n in self._v:
            g = gcd(n, d)
            pairs.append((n // g, d // g))
        return tuple(pairs)

    @property
    def backend(self) -> str:
        return FLOAT if self._d is None else EXACT

    @property
    def real(self) -> Scalar:
        d = self._d
        return self._v[0] if d is None else Fraction(self._v[0], d)

    def as_float(self) -> "Octonion":
        """A float-backend copy of this value."""
        d = self._d
        if d is None:
            return _new(self._v, None)
        # int / int is correctly rounded, as float(Fraction(n, d)) is.
        return _new([n / d for n in self._v], None)

    # -- helpers -------------------------------------------------------

    def _require_same_backend(self, other: "Octonion") -> None:
        if (self._d is None) != (other._d is None):
            raise BackendMismatchError(
                f"cannot mix {self.backend} and {other.backend} backends"
            )

    def _aligned(self, other: "Octonion") -> tuple:
        """Both values' coefficients over one denominator: (a, b, d)."""
        self._require_same_backend(other)
        da, db = self._d, other._d
        if da == db:
            return self._v, other._v, da
        d = lcm(da, db)
        fa, fb = d // da, d // db
        return [n * fa for n in self._v], [n * fb for n in other._v], d

    def _scaled(self, value) -> "Octonion":
        if self._d is None:
            s = float(value)
            return _new([v * s for v in self._v], None)
        if isinstance(value, float):
            raise BackendMismatchError("float scalar on the exact backend")
        # ints and Fractions both carry numerator and denominator.
        return _new(
            [n * value.numerator for n in self._v], self._d * value.denominator
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        a, b, d = self._aligned(other)
        return _new([x + y for x, y in zip(a, b)], d)

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        a, b, d = self._aligned(other)
        return _new([x - y for x, y in zip(a, b)], d)

    def __neg__(self):
        return _new([-v for v in self._v], self._d)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            self._require_same_backend(other)
            d = self._d
            # One loop for both backends, in the (i, j) order of
            # kernels.multiply, so float products agree with it bit for bit.
            out = [0.0] * DIM if d is None else [0] * DIM
            b = other._v
            for ai, row_index, row_sign in zip(self._v, _MUL_INDEX, _MUL_SIGN):
                if not ai:
                    continue
                for bj, k, sign in zip(b, row_index, row_sign):
                    if not bj:
                        continue
                    if sign == 1:
                        out[k] += ai * bj
                    else:
                        out[k] -= ai * bj
            return _new(out, None if d is None else d * other._d)
        if isinstance(other, (int, float, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self._scaled(other)
        return NotImplemented

    def conjugate(self) -> "Octonion":
        """Negate the imaginary part; reverses products: (xy)~ = y~ x~."""
        v = self._v
        return _new([v[0]] + [-x for x in v[1:]], self._d)

    def norm_sq(self) -> Scalar:
        """The squared norm, sum of squared coefficients.

        Multiplicative: norm_sq(x*y) == norm_sq(x) * norm_sq(y), exactly on
        the exact backend, where the value is a Fraction.
        """
        v, d = self._v, self._d
        if d is not None:
            return Fraction(sum(n * n for n in v), d * d)
        acc = v[0] * v[0]
        for x in v[1:]:
            acc = acc + x * x
        return acc

    def inverse(self) -> "Octonion":
        """The two-sided multiplicative inverse, conjugate / norm_sq.

        On the float backend a squared norm beyond the binary64 range raises
        NonFiniteError: one that overflows would round the inverse towards
        zero, and a nonzero one that underflows to 0 cannot be divided by.
        """
        v, d = self._v, self._d
        if d is None:
            n2 = self.norm_sq()
            if not n2:
                if not self:
                    raise ZeroInverseError(f"zero octonion has no inverse: operand {self}")
                raise NonFiniteError(
                    f"the squared norm of operand {self} underflows binary64 to 0"
                )
            if not math.isfinite(n2):
                raise NonFiniteError(
                    f"the squared norm of operand {self} is beyond the binary64 range"
                )
            return _new([x / n2 for x in self.conjugate()._v], None)
        # conj(v)/d divided by sum(v^2)/d^2 is conj(v)*d / sum(v^2).
        s = sum(n * n for n in v)
        if not s:
            raise ZeroInverseError(f"zero octonion has no inverse: operand {self}")
        return _new([v[0] * d] + [-n * d for n in v[1:]], s)

    # -- comparison ----------------------------------------------------

    def equals(self, other: "Octonion", tolerance: Scalar = 0) -> bool:
        """Componentwise comparison.

        On the exact backend the tolerance must be 0 and the comparison is
        structural equality of reduced rationals.  On the float backend every
        componentwise absolute difference must be at most the tolerance, so a
        NaN or inf difference makes the values unequal.
        """
        self._require_same_backend(other)
        require_tolerance(tolerance)
        if self._d is not None:
            if tolerance != 0:
                raise InvalidToleranceError(
                    "the exact backend compares exactly; tolerance must be 0"
                )
            return self._d == other._d and self._v == other._v
        return all(abs(a - b) <= tolerance for a, b in zip(self._v, other._v))

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return self._d == other._d and self._v == other._v

    def __hash__(self):
        return hash((self._d, self._v))

    def __bool__(self):
        return any(self._v)

    # -- display -------------------------------------------------------

    def __str__(self):
        from .textform import format_octonion

        return format_octonion(self)

    def __repr__(self):
        return f"Octonion({str(self)!r}, backend={self.backend!r})"


_alloc = object.__new__
_set_v = Octonion._v.__set__
_set_d = Octonion._d.__set__


def _new(values, d) -> Octonion:
    """Wrap coefficients as an Octonion without going through __init__.

    ``d is None`` makes a float value from ``values``; otherwise ``values``
    are integer numerators over ``d > 0``, reduced here with one gcd.
    """
    if d is not None:
        g = gcd(d, *values)
        if g != 1:
            values = [n // g for n in values]
            d //= g
    x = _alloc(Octonion)
    _set_v(x, tuple(values))
    _set_d(x, d)
    return x
