"""Commutator and associator constructions.

Two flavors of each bracket: the additive ones measure the failure to
commute or associate as a difference, the multiplicative ones are
unit-norm factors that convert one evaluation order into the other:

    (x*y) * multiplicative_commutator(x, y)    == y*x
    ((x*y)*z) * multiplicative_associator(x, y, z) == x*(y*z)
"""

from __future__ import annotations

from fractions import Fraction

from .core import FLOAT, Octonion
from .errors import BackendMismatchError, InvalidWordError, ZeroInverseError


def _require_nonzero(**operands: Octonion) -> None:
    for name, value in operands.items():
        if not value:
            raise ZeroInverseError(f"operand {name!r} is zero and has no inverse")


def additive_commutator(x: Octonion, y: Octonion) -> Octonion:
    """x*y - y*x; zero exactly when x and y commute."""
    return x * y - y * x


def additive_associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """x*(y*z) - (x*y)*z; zero exactly when the triple associates."""
    return x * (y * z) - (x * y) * z


def multiplicative_commutator(x: Octonion, y: Octonion) -> Octonion:
    """The unit-norm c with (x*y)*c == y*x, computed as y^-1 * x^-1 * y * x.

    The four-factor product is evaluated left to right; any other order
    gives the same value because only two generators are involved.
    """
    _require_nonzero(x=x, y=y)
    return ((y.inverse() * x.inverse()) * y) * x


def multiplicative_associator(x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """The unit-norm a with ((x*y)*z)*a == x*(y*z).

    Evaluated as (z^-1 * (y^-1 * x^-1)) * (x * (y*z)) with exactly that
    grouping; the shorter inverse((x*y)*z) * (x*(y*z)) form is checked
    against it in the tests rather than substituted for it.
    """
    _require_nonzero(x=x, y=y, z=z)
    left = z.inverse() * (y.inverse() * x.inverse())
    right = x * (y * z)
    return left * right


def _schafer_sides(a: Octonion, x: Octonion, y: Octonion, z: Octonion):
    """The two sides ``(lhs, rhs)`` of the identity `schafer_residual`
    checks, each of its eight shared subproducts made once."""
    ax, xy, yz = a * x, x * y, y * z
    xy_z, x_yz = xy * z, x * yz
    ax_y, a_xy = ax * y, a * xy
    ax_yz = ax * yz
    lhs = a * (x_yz - xy_z) + (a_xy - ax_y) * z
    rhs = (ax_yz - ax_y * z) - (a * xy_z - a_xy * z) + (a * x_yz - ax_yz)
    return lhs, rhs


def schafer_residual(a: Octonion, x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """Residual of the four-variable associator identity

        a*[x,y,z] + [a,x,y]*z  ==  [a*x,y,z] - [a,x*y,z] + [a,x,y*z]

    with [.,.,.] the additive associator.  Always returns zero; the
    function exists so the identity is a first-class, fuzzable check.

    This is Teichmüller's identity, which holds in every nonassociative
    algebra: any bilinear product satisfies it, whatever its table.  So it
    catches faults in ``+``, ``-``, the additive associator and float
    rounding, but not in the multiplication table.

    The eight subproducts the five associators share (``a*x``, ``x*y``,
    ``y*z``, ``(x*y)*z``, ``x*(y*z)``, ``(a*x)*y``, ``a*(x*y)`` and
    ``(a*x)*(y*z)``) are made once, so a case costs 14 products, not 25.
    Every bracket keeps its terms, their grouping, order and sign; none
    cancel, not even the ``(a*x)*(y*z)`` of the first and third brackets,
    so a float residual is bit for bit the five-associator expression's.
    """
    lhs, rhs = _schafer_sides(a, x, y, z)
    return lhs - rhs


# -- two-generator words ------------------------------------------------

WORD_SYMBOLS = ("x", "y", "x~", "y~", "x^-1", "y^-1")

# Each symbol's value from the generators, in WORD_SYMBOLS order.
_SYMBOL_VALUES = (
    lambda x, y: x,
    lambda x, y: y,
    lambda x, y: x.conjugate(),
    lambda x, y: y.conjugate(),
    lambda x, y: x.inverse(),
    lambda x, y: y.inverse(),
)


def expand_word(word, x: Octonion, y: Octonion) -> list[Octonion]:
    """Substitute x and y into a word over the symbols ``x``, ``y``,
    ``x~``, ``y~``, ``x^-1``, ``y^-1`` and real scalars.

    Each symbol's value is made once per word, and every occurrence of the
    symbol is that one (immutable) object."""
    x._require_same_backend(y)
    made = [None] * len(WORD_SYMBOLS)
    values = []
    for symbol in word:
        if isinstance(symbol, (int, float, Fraction)):
            values.append(_scalar_octonion(symbol, x.backend))
            continue
        # Found by ==, not by hash, so an unhashable symbol is refused too.
        try:
            k = WORD_SYMBOLS.index(symbol)
        except ValueError:
            raise InvalidWordError(
                f"unknown word symbol {symbol!r}; words are built from "
                f"{WORD_SYMBOLS} and real scalars"
            ) from None
        if made[k] is None:
            made[k] = _SYMBOL_VALUES[k](x, y)
        values.append(made[k])
    return values


def _scalar_octonion(value, backend: str) -> Octonion:
    if backend == FLOAT:
        return Octonion.from_real(float(value))
    if isinstance(value, float):
        raise BackendMismatchError("float scalar in an exact-backend word")
    return Octonion.from_real(Fraction(value))
