"""Octonion arithmetic over two scalar backends.

The exact backend stores coefficients as `fractions.Fraction`, so every
algebraic identity the package verifies can be checked with tolerance 0.
The float backend stores binary64 coefficients and exists for speed;
comparisons on it require an explicit tolerance.

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
from typing import Iterable, Union

from .errors import BackendMismatchError, InvalidToleranceError, ZeroInverseError

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

    __slots__ = ("c",)

    c: tuple

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = tuple(coefficients)
        if len(coeffs) != DIM:
            raise ValueError(
                f"octonions take exactly {DIM} coefficients, got {len(coeffs)}"
            )
        if any(isinstance(v, float) for v in coeffs):
            object.__setattr__(self, "c", tuple(float(v) for v in coeffs))
        else:
            object.__setattr__(
                self, "c", tuple(v if type(v) is Fraction else Fraction(v) for v in coeffs)
            )

    def __setattr__(self, name, value):
        raise AttributeError("Octonion values are immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, backend: str = EXACT) -> "Octonion":
        base = 0.0 if backend == FLOAT else Fraction(0)
        return cls((base,) * DIM)

    @classmethod
    def one(cls, backend: str = EXACT) -> "Octonion":
        return cls.unit(0, backend)

    @classmethod
    def unit(cls, k: int, backend: str = EXACT) -> "Octonion":
        """The basis unit e_k, 0 <= k <= 7."""
        if not 0 <= k < DIM:
            raise ValueError(f"unit index must be in 0..{DIM - 1}, got {k}")
        one = 1.0 if backend == FLOAT else Fraction(1)
        zero = 0.0 if backend == FLOAT else Fraction(0)
        return cls(tuple(one if i == k else zero for i in range(DIM)))

    @classmethod
    def from_real(cls, value: Scalar) -> "Octonion":
        """Embed a scalar as a real octonion; backend follows the value type."""
        zero = 0.0 if isinstance(value, float) else Fraction(0)
        return cls((value,) + (zero,) * (DIM - 1))

    @classmethod
    def parse(cls, text: str, backend: str = EXACT) -> "Octonion":
        from .textform import parse_octonion

        return parse_octonion(text, backend)

    # -- properties ----------------------------------------------------

    @property
    def backend(self) -> str:
        return FLOAT if isinstance(self.c[0], float) else EXACT

    @property
    def real(self) -> Scalar:
        return self.c[0]

    def as_float(self) -> "Octonion":
        """A float-backend copy of this value."""
        return Octonion(tuple(float(v) for v in self.c))

    # -- helpers -------------------------------------------------------

    def _require_same_backend(self, other: "Octonion") -> None:
        if self.backend != other.backend:
            raise BackendMismatchError(
                f"cannot mix {self.backend} and {other.backend} backends"
            )

    def _coerce_scalar(self, value) -> Scalar:
        if self.backend == FLOAT:
            return float(value)
        if isinstance(value, float):
            raise BackendMismatchError("float scalar on the exact backend")
        return value if type(value) is Fraction else Fraction(value)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        self._require_same_backend(other)
        return Octonion(a + b for a, b in zip(self.c, other.c))

    def __sub__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        self._require_same_backend(other)
        return Octonion(a - b for a, b in zip(self.c, other.c))

    def __neg__(self):
        return Octonion(-a for a in self.c)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            self._require_same_backend(other)
            a = self.c
            b = other.c
            zero = 0.0 if isinstance(a[0], float) else Fraction(0)
            out = [zero] * DIM
            for i in range(DIM):
                ai = a[i]
                if not ai:
                    continue
                row_index = _MUL_INDEX[i]
                row_sign = _MUL_SIGN[i]
                for j in range(DIM):
                    bj = b[j]
                    if not bj:
                        continue
                    if row_sign[j] == 1:
                        out[row_index[j]] += ai * bj
                    else:
                        out[row_index[j]] -= ai * bj
            return Octonion(out)
        if isinstance(other, (int, float, Fraction)):
            s = self._coerce_scalar(other)
            return Octonion(v * s for v in self.c)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            s = self._coerce_scalar(other)
            return Octonion(s * v for v in self.c)
        return NotImplemented

    def conjugate(self) -> "Octonion":
        """Negate the imaginary part; reverses products: (xy)~ = y~ x~."""
        return Octonion((self.c[0],) + tuple(-v for v in self.c[1:]))

    def norm_sq(self) -> Scalar:
        """The squared norm, sum of squared coefficients.

        Multiplicative: norm_sq(x*y) == norm_sq(x) * norm_sq(y), exactly on
        the exact backend.
        """
        acc = self.c[0] * self.c[0]
        for v in self.c[1:]:
            acc = acc + v * v
        return acc

    def inverse(self) -> "Octonion":
        """The two-sided multiplicative inverse, conjugate / norm_sq."""
        n2 = self.norm_sq()
        if not n2:
            raise ZeroInverseError(f"zero octonion has no inverse: operand {self}")
        return Octonion(v / n2 for v in self.conjugate().c)

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
        if self.backend == EXACT:
            if tolerance != 0:
                raise InvalidToleranceError(
                    "the exact backend compares exactly; tolerance must be 0"
                )
            return self.c == other.c
        return all(abs(a - b) <= tolerance for a, b in zip(self.c, other.c))

    def __eq__(self, other):
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.backend == other.backend and self.c == other.c

    def __hash__(self):
        return hash((self.backend, self.c))

    def __bool__(self):
        return any(self.c)

    # -- display -------------------------------------------------------

    def __str__(self):
        from .textform import format_octonion

        return format_octonion(self)

    def __repr__(self):
        return f"Octonion({str(self)!r}, backend={self.backend!r})"
