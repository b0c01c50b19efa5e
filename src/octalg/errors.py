"""Exception types shared across the package."""

from __future__ import annotations


class OctalgError(Exception):
    """Base class for all octalg errors."""


class BackendMismatchError(OctalgError, TypeError):
    """Raised when exact and float values are mixed in one operation."""


class InvalidToleranceError(OctalgError, ValueError):
    """Raised for a negative tolerance, or a nonzero one on the exact backend."""


class ZeroInverseError(OctalgError, ZeroDivisionError):
    """Raised when an inverse of zero is requested; names the offending operand."""


class NonFiniteError(OctalgError, ValueError):
    """Raised when a float-backend literal, or a squared norm that an inverse
    divides by, is beyond the binary64 range: not finite, or underflowed to 0
    from nonzero coefficients."""


class ShapeMismatchError(OctalgError, ValueError):
    """Raised when a product tree does not fit its factor or word list."""


class OutOfRangeError(OctalgError, ValueError):
    """Raised when a factor count is outside the supported enumeration bounds."""


class InvalidWordError(OctalgError, ValueError):
    """Raised when a two-generator word contains an unknown symbol."""


class ParseError(OctalgError, ValueError):
    """Syntax error in an octonion literal or expression.

    Carries the byte offset of the failure and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, offset: int, expected: tuple[str, ...], found: str = ""):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        want = " or ".join(self.expected)
        detail = f", found {found!r}" if found else ""
        super().__init__(f"syntax error at offset {offset}: expected {want}{detail}")


class UnboundVariableError(OctalgError, NameError):
    """Raised when an expression refers to a variable with no binding."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class ReservedIdentifierError(OctalgError, ValueError):
    """Raised on an attempt to bind one of the reserved unit names e0..e7."""
