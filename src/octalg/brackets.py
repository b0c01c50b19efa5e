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


def schafer_residual(a: Octonion, x: Octonion, y: Octonion, z: Octonion) -> Octonion:
    """Residual of the four-variable associator identity

        a*[x,y,z] + [a,x,y]*z  ==  [a*x,y,z] - [a,x*y,z] + [a,x,y*z]

    with [.,.,.] the additive associator.  Always returns zero; the
    function exists so the identity is a first-class, fuzzable check.
    """
    lhs = a * additive_associator(x, y, z) + additive_associator(a, x, y) * z
    rhs = (
        additive_associator(a * x, y, z)
        - additive_associator(a, x * y, z)
        + additive_associator(a, x, y * z)
    )
    return lhs - rhs


# -- two-generator words ------------------------------------------------

WORD_SYMBOLS = ("x", "y", "x~", "y~", "x^-1", "y^-1")


def expand_word(word, x: Octonion, y: Octonion) -> list[Octonion]:
    """Substitute x and y into a word over the symbols ``x``, ``y``,
    ``x~``, ``y~``, ``x^-1``, ``y^-1`` and real scalars."""
    x._require_same_backend(y)
    values = []
    for symbol in word:
        if isinstance(symbol, (int, float, Fraction)):
            values.append(_scalar_octonion(symbol, x.backend))
        elif symbol == "x":
            values.append(x)
        elif symbol == "y":
            values.append(y)
        elif symbol == "x~":
            values.append(x.conjugate())
        elif symbol == "y~":
            values.append(y.conjugate())
        elif symbol == "x^-1":
            values.append(x.inverse())
        elif symbol == "y^-1":
            values.append(y.inverse())
        else:
            raise InvalidWordError(
                f"unknown word symbol {symbol!r}; words are built from "
                f"{WORD_SYMBOLS} and real scalars"
            )
    return values


def _scalar_octonion(value, backend: str) -> Octonion:
    if backend == FLOAT:
        return Octonion.from_real(float(value))
    if isinstance(value, float):
        raise BackendMismatchError("float scalar in an exact-backend word")
    return Octonion.from_real(Fraction(value))
