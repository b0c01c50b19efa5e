"""Octonion arithmetic over two scalar backends.

The exact backend stores an octonion as 8 Python ints over one positive
common denominator, reduced so that the denominator and the numerators
share no factor.  A product is then 64 integer multiplications and one
gcd, and every algebraic identity the package verifies can be checked
with tolerance 0.  ``Octonion.c`` presents the coefficients as reduced
`fractions.Fraction` values; only the methods that build or name a
Fraction import `fractions` (a plain ``import``, the cheaper statement once
it is loaded), so arithmetic on the stored ints never loads it.  The float
backend stores binary64 coefficients and exists for speed; comparisons on
it require an explicit tolerance.

The product is the one that `octalg.table` derives from the Cayley-Dickson
doubling rule, written as straight-line source of 8 signed sums into the
committed module `octalg._generated` (regenerate it with ``python
tools/generate.py``), so an import compiles nothing that bytecode does not
cache, and no command derives the table.  The tests derive and check the
table and require the committed module to be current.
"""

from __future__ import annotations

import math
import sys
import types
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from . import _generated
from .errors import (
    BackendMismatchError,
    InvalidToleranceError,
    NonFiniteError,
    ZeroInverseError,
)

if TYPE_CHECKING:
    from fractions import Fraction

    # Only for annotations: at run time a forward reference in a Union
    # would compile source at import.
    Scalar = Union[Fraction, float]

DIM = 8

EXACT = "exact"
FLOAT = "float"

# Comparison tolerance of the float backend when the caller names none.
DEFAULT_FLOAT_TOLERANCE = 1e-12

# The smallest normal binary64 number.  A float squared norm below it is
# subnormal and has lost its relative precision, so no inverse divides by it.
_MIN_NORMAL = sys.float_info.min


def resolve_tolerance(backend: str, tolerance: Scalar | None = None) -> Scalar:
    """The comparison tolerance in force on ``backend``: 0 on exact, which
    compares exactly, and on float ``tolerance``, or `DEFAULT_FLOAT_TOLERANCE`
    when it is None.  ValueError for a backend other than `EXACT` and
    `FLOAT`; InvalidToleranceError for a nonzero tolerance on exact, and for
    a negative, NaN or infinite one on float."""
    if backend not in (EXACT, FLOAT):
        raise ValueError(f"backend must be {EXACT!r} or {FLOAT!r}, got {backend!r}")
    if backend == EXACT:
        if tolerance not in (None, 0):
            raise InvalidToleranceError(
                "a tolerance only applies to the float backend (exact compares "
                f"exactly), got {tolerance}"
            )
        return 0
    if tolerance is None:
        return DEFAULT_FLOAT_TOLERANCE
    if not 0 <= tolerance < math.inf:
        raise InvalidToleranceError(
            f"tolerance must be a finite number >= 0, got {tolerance}"
        )
    return tolerance


def _deviation(a, b, scale_by=None):
    """``(absolute, scale)``: the largest ``|a_k - b_k|``, and ``max(1, largest
    |c|)`` over ``scale_by`` (default ``a + b``).  Any NaN or inf, checked one by
    one, never summed (a sum can overflow), gives ``(nan, nan)``: it never passes."""
    diffs = [abs(x - y) for x, y in zip(a, b)]
    magnitudes = [1.0, *map(abs, a + b if scale_by is None else scale_by)]
    finite = all(map(math.isfinite, diffs + magnitudes))
    return (max(diffs), max(magnitudes)) if finite else (math.nan, math.nan)


def _eq(a, b, tolerance, *scale_by: Octonion) -> bool:
    """Compare two octonions, or two norms, of one backend: exactly on exact; on
    float as ``absolute <= tolerance * scale`` of `_deviation`, scaled by ``scale_by``
    (default: a and b).  A product: a quotient could round across the boundary."""
    if isinstance(a, Octonion) and a._d is None:
        a, b, scale_by = a._v, b._v, [c for v in scale_by for c in v._v]
    elif isinstance(a, float):
        a, b = (a,), (b,)
    else:
        return a == b
    absolute, scale = _deviation(a, b, scale_by or None)
    return absolute <= tolerance * scale


# The product of the 8-sequences ``a`` and ``b`` as a list of 8 sums, the
# only product formula of the package.  Each sum starts from the caller's
# zero ``z`` (0 on exact, 0.0 on float): from +0.0, adding a signed zero
# never makes a sum -0.0.  Lists of numbers and `kernels`' coefficient
# columns evaluate the same ordered sums, so they round alike.
_product = _generated._product


def _sum_of_squares(v):
    """``v[0]*v[0] + v[1]*v[1] + ...`` in coefficient order, numbers or columns."""
    acc = v[0] * v[0]
    for x in v[1:]:
        acc = acc + x * x
    return acc


def _in_range(value: Octonion, operands: Sequence[Octonion] = ()) -> bool:
    """Whether ``value``, made from ``operands``, stayed within binary64: always
    on exact; on float when every coefficient is finite and, if ``operands``
    are given and all nonzero, ``value`` is not 0.  A product of nonzero
    octonions is never 0 (they form a division algebra), so a float 0 made
    from them can only be underflow."""
    v = value._v
    return value._d is not None or (
        all(map(math.isfinite, v)) and (any(v) or not (operands and all(operands)))
    )


def _range_error(what: str, value) -> NonFiniteError:
    """The NonFiniteError for ``what``, whose float ``value`` (an octonion or
    a squared norm) left the binary64 range: it underflowed to 0 when
    ``value`` is 0, is subnormal when a nonzero squared norm is below
    `_MIN_NORMAL`, and is beyond the range otherwise."""
    if not value:
        problem = "underflows binary64 to 0"
    elif isinstance(value, float) and value < _MIN_NORMAL:
        problem = f"is subnormal, below the smallest normal binary64 number {_MIN_NORMAL!r}"
    else:
        problem = "is beyond the binary64 range"
    return NonFiniteError(f"{what} {problem}")


def _to_binary64(n: int, d: int, what: str) -> float:
    """``n / d`` as binary64, correctly rounded, as ``float(Fraction(n, d))``
    is; the `_range_error` for ``what`` when it is beyond the binary64 range,
    or nonzero and rounds to 0."""
    try:
        result = n / d
    except OverflowError:  # a quotient too large for a float
        raise _range_error(what, math.inf) from None
    if n and not result:
        raise _range_error(what, result)
    return result


def _require_in_range(value: Octonion, operands: Sequence[Octonion] = ()) -> Octonion:
    """``value``, made from ``operands``, when it is `_in_range` of them; else
    raises the `_range_error` for "the result"."""
    if not _in_range(value, operands):
        raise _range_error("the result", value)
    return value


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
            # A rational coefficient (an int or a Fraction) that binary64
            # cannot hold is refused, as the parser refuses such a number.
            values = tuple(
                _to_binary64(int(v.numerator), int(v.denominator), "a coefficient")
                if hasattr(v, "denominator")
                else float(v)
                for v in coeffs
            )
            if not all(map(math.isfinite, values)):
                raise NonFiniteError(
                    f"octonion coefficients must be finite binary64 values, got {values}"
                )
            _set_v(self, values)
            _set_d(self, None)
            return
        import fractions

        Fraction = fractions.Fraction
        exact = [v if type(v) is Fraction else Fraction(v) for v in coeffs]
        # Each Fraction is reduced, so over the lcm of their denominators
        # the numerators already share no factor with it.
        d = lcm(*(f.denominator for f in exact))
        _set_v(self, tuple(f.numerator * (d // f.denominator) for f in exact))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion values are immutable")

    def __reduce__(self):
        # Copy and pickle rebuild through _new, never through __setattr__.
        return _new, (self._v, self._d)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, backend: str = EXACT) -> "Octonion":
        if backend == FLOAT:
            return _new((0.0,) * DIM, None)
        return _new((0,) * DIM, 1)

    @classmethod
    def one(cls, backend: str = EXACT) -> "Octonion":
        return cls.unit(0, backend)

    @classmethod
    def unit(cls, k: int, backend: str = EXACT) -> "Octonion":
        """The basis unit e_k, 0 <= k <= 7."""
        if not 0 <= k < DIM:
            raise ValueError(f"unit index must be in 0..{DIM - 1}, got {k}")
        if backend == FLOAT:
            return _new([1.0 if i == k else 0.0 for i in range(DIM)], None)
        return _new([1 if i == k else 0 for i in range(DIM)], 1)

    @classmethod
    def from_real(cls, value: Scalar) -> "Octonion":
        """Embed a scalar as a real octonion; backend follows the value type."""
        import fractions

        if isinstance(value, (int, fractions.Fraction)):
            # Both carry a reduced numerator and a positive denominator.
            return _new((value.numerator,) + (0,) * (DIM - 1), value.denominator)
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
        import fractions

        return tuple(fractions.Fraction(n, d) for n in self._v)

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
        if d is None:
            return self._v[0]
        import fractions

        return fractions.Fraction(self._v[0], d)

    def as_float(self) -> "Octonion":
        """A float-backend copy of this value; NonFiniteError for a coefficient
        that binary64 cannot hold."""
        d = self._d
        if d is None:
            return _new(self._v, None)
        return _new([_to_binary64(n, d, "a coefficient") for n in self._v], None)

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
            if isinstance(value, float):
                s = float(value)
            else:  # an int or a Fraction
                s = _to_binary64(value.numerator, value.denominator, "the scalar")
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
            # The product generated from the derived table; kernels.multiply
            # runs it on columns, so the two agree bit for bit.
            if self._d is None:
                return _new(_product(self._v, other._v, 0.0), None)
            return _new(_product(self._v, other._v, 0), self._d * other._d)
        return self.__rmul__(other)

    def __rmul__(self, other):
        import fractions

        if isinstance(other, (int, float, fractions.Fraction)):
            return self._scaled(other)
        return NotImplemented

    def conjugate(self) -> "Octonion":
        """Negate the imaginary part; reverses products: (xy)~ = y~ x~."""
        # Negation keeps reduced numerators reduced: no gcd, unlike _new.
        v = self._v
        x = _alloc(Octonion)
        _set_v(x, (v[0], *[-a for a in v[1:]]))
        _set_d(x, self._d)
        return x

    def norm_sq(self) -> Scalar:
        """The squared norm, sum of squared coefficients.

        Multiplicative: norm_sq(x*y) == norm_sq(x) * norm_sq(y), exactly on
        the exact backend, where the value is a Fraction.
        """
        d = self._d
        n2 = _sum_of_squares(self._v)
        if d is None:
            return n2
        import fractions

        return fractions.Fraction(n2, d * d)

    def inverse(self) -> "Octonion":
        """The two-sided multiplicative inverse, conjugate / norm_sq.

        On the float backend a squared norm outside the normal binary64
        range raises NonFiniteError: one that overflows would round the
        inverse towards zero, a subnormal one has lost the precision the
        inverse needs, and a nonzero one that underflows to 0 cannot be
        divided by.
        """
        v, d = self._v, self._d
        if d is None:
            n2 = self.norm_sq()
            if not _MIN_NORMAL <= n2 < math.inf:
                if not self:
                    raise ZeroInverseError(f"zero octonion has no inverse: operand {self}")
                raise _range_error(f"the squared norm of operand {self}", n2)
            return _new([x / n2 for x in self.conjugate()._v], None)
        # conj(v)/d divided by sum(v^2)/d^2 is conj(v)*d / sum(v^2).
        s = _sum_of_squares(v)
        if not s:
            raise ZeroInverseError(f"zero octonion has no inverse: operand {self}")
        return _new([n * d for n in self.conjugate()._v], s)

    # -- comparison ----------------------------------------------------

    def equals(self, other: "Octonion", tolerance: Scalar = 0) -> bool:
        """Componentwise comparison.

        On the exact backend the tolerance must be 0 and the comparison is
        structural equality of reduced rationals.  On the float backend every
        componentwise absolute difference must be at most the tolerance, so a
        NaN or inf difference makes the values unequal: `_deviation` at scale 1.
        """
        self._require_same_backend(other)
        tolerance = resolve_tolerance(self.backend, tolerance)
        if self._d is not None:
            return self._d == other._d and self._v == other._v
        return _deviation(self._v, other._v, ())[0] <= tolerance

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


def _postorder(root) -> list:
    """Every record of the tree under ``root``, each after the sub-records
    in its `_Record._children` fields, in field order.  Built on an explicit
    stack, so depth is not bounded by the recursion limit: each record is
    listed before its children, the last first, and the list is reversed.
    A value without ``_children`` where a record belongs raises TypeError."""
    order, todo = [], [root]
    while todo:
        node = todo.pop()
        try:
            children = node._children
        except AttributeError:
            raise TypeError(f"not a record: {node!r}") from None
        order.append(node)
        for name in children:
            todo.append(getattr(node, name))
    order.reverse()
    return order


def _fold(root, combine):
    """The tree under ``root`` evaluated bottom up: each record's result is
    ``combine(record, *results)``, with its children's results in
    `_Record._children` order, and the root's is returned.  Records come
    from `_postorder`, so depth is not bounded by the recursion limit."""
    results = []
    for node in _postorder(root):
        # Records with no children or two, which make up every product tree,
        # take their operands with no slice and no unpacking.
        arity = len(node._children)
        if not arity:
            results.append(combine(node))
        elif arity == 2:
            right = results.pop()
            results[-1] = combine(node, results[-1], right)
        else:
            results[-arity:] = [combine(node, *results[-arity:])]
    return results[0]


class _Record:
    """Base of the package's small records, the expression and tree nodes
    among them.

    A subclass lists its fields in ``__slots__``, names those that hold
    sub-records in ``_children``, and gives the defaults of its last fields,
    if any, in ``_defaults``.  It writes no ``__init__``: the one made here
    takes the fields in ``__slots__`` order, by position or keyword, and
    sets each, so `_from_key` can rebuild every record.  Instances
    refuse assignment, compare and hash on `_postorder`, and show as
    ``Name(field=value, ...)`` through `_fold`, at any depth.
    """

    __slots__ = ()
    _children = ()
    _defaults = ()

    def __init_subclass__(cls):
        # The generated code for this many fields, its parameters renamed to
        # the record's fields, in a function named ``Name.__init__``, so a
        # bad call's TypeError reads as a written constructor's would.  Each
        # field is set through its slot descriptor, as a record may refuse
        # assignment.
        code = getattr(_generated, f"_init{len(cls.__slots__)}").__code__
        code = code.replace(co_name="__init__", co_varnames=("self", *cls.__slots__))
        setters = {f"_set{i}": vars(cls)[name].__set__ for i, name in enumerate(cls.__slots__)}
        cls.__init__ = types.FunctionType(code, setters, "__init__", cls._defaults)
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _key(self) -> tuple:
        # Each node's type and other fields, in postorder.  Every type has a
        # fixed number of children, so this sequence is the tree.
        return tuple(
            (node.__class__,)
            + tuple(getattr(node, name) for name in node.__slots__ if name not in node._children)
            for node in _postorder(self)
        )

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # The flat `_key`, rebuilt on a stack by `_from_key`, so copy and
        # pickle do not recurse once per level, and never assign a field.
        return _from_key, (self._key(),)

    def __repr__(self):
        return _fold(self, _record_text)


def _record_text(node, *texts) -> str:
    """``Name(field=value, ...)`` for ``node``, each child field shown as
    its text in ``texts``."""
    shown = dict(zip(node._children, texts))
    fields = ", ".join(f"{k}={shown.get(k) or repr(getattr(node, k))}" for k in node.__slots__)
    return f"{node.__class__.__qualname__}({fields})"


def _from_key(key):
    """The record whose `_Record._key` is ``key``: each node is built by the
    ``__init__`` that `_Record` makes from its ``__slots__``, from the other
    fields in its key entry and the records last built for its children."""
    built = []
    for cls, *fields in key:
        first = len(built) - len(cls._children)
        children = dict(zip(cls._children, built[first:]))
        del built[first:]
        others = iter(fields)
        built.append(
            cls(*[children[name] if name in children else next(others) for name in cls.__slots__])
        )
    return built[0]
