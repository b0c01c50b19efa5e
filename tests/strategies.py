"""Shared hypothesis strategies and small helpers."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from octalg import AssociatorMatrix, NonFiniteError, Octonion, ParseError
from octalg.exprs import Var

# Every p/q with 1 <= q <= 9 and |p/q| <= 9, drawn without st.fractions,
# whose drawing dominates the suite's run time.
coefficients = st.integers(1, 9).flatmap(
    lambda d: st.integers(-9 * d, 9 * d).map(lambda n: Fraction(n, d))
)

octonions = st.tuples(*[coefficients] * 8).map(Octonion)

nonzero_octonions = octonions.filter(bool)

# Float operands whose products stay finite, and those that overflow.
float_octonions = st.tuples(
    *[st.floats(allow_nan=False, allow_infinity=False, width=64)] * 8
).map(Octonion)

backends = st.sampled_from(["exact", "float"])

# Any text, and text over the characters of literals and expressions.
source_text = st.text() | st.text(alphabet="0123456789e./+-*()~^ xyE_\t")


# The largest power of ten that binary64 holds, as a decimal float literal.
MAX_LITERAL = "1" + "0" * 308 + ".0"

# Text joined from the pieces of literals and expressions, with numbers
# whose sums leave the binary64 range.
literal_text = st.lists(
    st.sampled_from([" ", "+", "-", "*", "x", "7", "/3", ".5", "e1", "e7", MAX_LITERAL])
).map("".join)

_TERM = ("number", "unit e0..e7")
_TERM_AT = "syntax error at offset {}: expected number or unit e0..e7"

# How the text format refuses a text: (text, backend, outcome from
# `parse_octonion`, outcome from `exprs.parse`), where an outcome is
# (type, offset, expected, found, message), ``None`` for the same as
# `parse_octonion`, or the value parsed.  A sign must be followed by a
# term, so a missing term is refused where the term should start, in a
# literal and in an expression alike.  A float literal whose sums leave the
# binary64 range is refused for that first, whatever follows it.
LITERAL_ERRORS = [
    ("1/", "exact", (ParseError, 2, ("denominator digits",), "",
                     "syntax error at offset 2: expected denominator digits"), None),
    ("1 / x", "exact", (ParseError, 4, ("denominator digits",), "",
                        "syntax error at offset 4: expected denominator digits"), None),
    ("1/ 0", "exact", (ParseError, 3, ("nonzero denominator",), "",
                       "syntax error at offset 3: expected nonzero denominator"), None),
    ("1.5", "exact", (ParseError, 0,
                      ("integer or fraction (decimal floats need the float backend)",), "",
                      "syntax error at offset 0: expected integer or fraction "
                      "(decimal floats need the float backend)"), None),
    ("1.", "float", (ParseError, 2, ("fractional digits",), "",
                     "syntax error at offset 2: expected fractional digits"), None),
    ("", "exact", (ParseError, 0, _TERM, "", _TERM_AT.format(0)),
     (ParseError, 0, ("literal", "identifier", "'('"), "",
      "syntax error at offset 0: expected literal or identifier or '('")),
    ("+", "exact", (ParseError, 1, _TERM, "", _TERM_AT.format(1)), None),
    ("2 + ", "exact", (ParseError, 4, _TERM, "", _TERM_AT.format(4)), None),
    ("2 + x", "exact", (ParseError, 4, _TERM, "x", _TERM_AT.format(4) + ", found 'x'"), None),
    ("2 + e8", "exact", (ParseError, 4, _TERM, "e", _TERM_AT.format(4) + ", found 'e'"), None),
    ("- x", "exact", (ParseError, 2, _TERM, "x", _TERM_AT.format(2) + ", found 'x'"), None),
    ("2 - * x", "exact", (ParseError, 4, _TERM, "*", _TERM_AT.format(4) + ", found '*'"), None),
    ("2 +- 3", "exact", (ParseError, 3, _TERM, "-", _TERM_AT.format(3) + ", found '-'"), None),
    ("2e1 -", "exact", (ParseError, 5, _TERM, "", _TERM_AT.format(5)), None),
    ("-e1 + 2/3 e2 - ", "float", (ParseError, 15, _TERM, "", _TERM_AT.format(15)), None),
    ("x*(1 - )", "exact", (ParseError, 0, _TERM, "x", _TERM_AT.format(0) + ", found 'x'"),
     (ParseError, 7, _TERM, ")", _TERM_AT.format(7) + ", found ')'")),
    ("x * -", "exact", (ParseError, 0, _TERM, "x", _TERM_AT.format(0) + ", found 'x'"),
     (ParseError, 5, _TERM, "", _TERM_AT.format(5))),
    ("2 x", "exact",
     (ParseError, 2, ("'+'", "'-'", "end of input"), "x",
      "syntax error at offset 2: expected '+' or '-' or end of input, found 'x'"),
     (ParseError, 2, ("'*'", "end of input"), "x",
      "syntax error at offset 2: expected '*' or end of input, found 'x'")),
    ("e10", "exact", (ParseError, 0, _TERM, "e", _TERM_AT.format(0) + ", found 'e'"),
     Var("e10")),
    (f"{MAX_LITERAL} + {MAX_LITERAL} -", "float",
     (NonFiniteError, None, None, None,
      "the e0 coefficient of the literal at offset 0 sums beyond the binary64 range"), None),
    (f"{MAX_LITERAL} + {MAX_LITERAL} - x", "float",
     (NonFiniteError, None, None, None,
      "the e0 coefficient of the literal at offset 0 sums beyond the binary64 range"), None),
    ("2 + 1" + "0" * 400 + ".0", "float",
     (NonFiniteError, None, None, None, "the number at offset 4 is beyond the binary64 range"),
     None),
    # The sum check names the offset scanning began at: parse_octonion
    # starts at 0, an expression at the literal's first character.
    (f" {MAX_LITERAL} + {MAX_LITERAL}", "float",
     (NonFiniteError, None, None, None,
      "the e0 coefficient of the literal at offset 0 sums beyond the binary64 range"),
     (NonFiniteError, None, None, None,
      "the e0 coefficient of the literal at offset 1 sums beyond the binary64 range")),
    (f"x * {MAX_LITERAL} + {MAX_LITERAL} - y", "float",
     (ParseError, 0, _TERM, "x", _TERM_AT.format(0) + ", found 'x'"),
     (NonFiniteError, None, None, None,
      "the e0 coefficient of the literal at offset 4 sums beyond the binary64 range")),
]

LITERAL_ERROR_IDS = [f"{backend}:{text[:12]!r}" for text, backend, _, _ in LITERAL_ERRORS]


def assert_outcome(parse, text: str, backend: str, outcome) -> None:
    """``parse(text, backend)`` returns ``outcome``, or raises the error it
    describes, with that offset, expected set, found text and message."""
    if not isinstance(outcome, tuple):
        assert parse(text, backend) == outcome
        return
    kind, offset, expected, found, message = outcome
    try:
        parse(text, backend)
    except Exception as error:
        assert type(error) is kind
        assert str(error) == message
        assert getattr(error, "offset", None) == offset
        assert getattr(error, "expected", None) == expected
        assert getattr(error, "found", None) == found
    else:
        raise AssertionError(f"{text!r} parsed")


def unit(k: int) -> Octonion:
    return Octonion.unit(k)


def perturbed(m: AssociatorMatrix, i: int, j: int, k: int, delta: float) -> AssociatorMatrix:
    """A copy of float matrix ``m`` with ``delta`` added to coefficient k of
    entry (i, j)."""
    flat = m.flat.copy()
    flat[i * m.size + j, k] += delta
    return AssociatorMatrix(n=m.n, products=m.products, flat=flat)


def float_edge_operands() -> list[Octonion]:
    """Signed zeros, subnormals, +-1e154 (products near the overflow
    threshold), an operand holding inf and NaN from overflow times e1, and
    full-precision values whose sums round differently in another order."""
    big = Octonion([1e200] + [0.0] * 7)
    rng = random.Random("generated-product")
    return [
        Octonion([0.0, -0.0, 1.0, -1.0, 0.0, 2.5, -0.0, 0.0]),
        Octonion([-0.0] * 8),
        Octonion([5e-324, -1e-310, 1e-300, 0.0, -2.2e-308, 1.0, -0.0, 3e-320]),
        Octonion([1e154, -1e154, 0.0, 1e154, -0.0, 1.0, 1e154, -1e154]),
        Octonion([-1e154, 1e154, 1e154, -1e154, 1e154, 0.0, -1e154, 1e154]),
        (big * big) * Octonion.unit(1, "float"),
    ] + [Octonion([rng.uniform(-9.0, 9.0) for _ in range(8)]) for _ in range(5)]
