"""The shared octonion text format: parsing and rendering.

An octonion is written as a signed sum of terms, one term per basis unit::

    2 - 3/4e1 + e7

Coefficients are decimal integers, fractions ``p/q``, or (float backend
only) plain decimal floats.  On the float backend every coefficient, and
every sum of terms on one unit, must be finite in binary64; anything
larger raises NonFiniteError.  The real unit is a bare coefficient; ``e1``
to ``e7`` name the imaginary units (a lone ``e0`` is also accepted and
means 1).  Whitespace is insignificant.  Scientific notation is not
supported: ``e`` followed by a digit always starts a unit name.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction

from .core import DIM, EXACT, FLOAT, Octonion, Scalar
from .errors import NonFiniteError, ParseError

WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")

UNIT_NAMES = {f"e{k}": k for k in range(DIM)}


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _scan_word(text: str, i: int) -> str | None:
    m = WORD_RE.match(text, i)
    return m.group(0) if m else None


def _to_float(value, offset: int) -> float:
    """``value`` as binary64; NonFiniteError when it is beyond that range."""
    try:
        result = float(value)
    except OverflowError:  # an int or Fraction too large for a float
        result = math.inf
    if not math.isfinite(result):
        raise NonFiniteError(f"the number at offset {offset} is beyond the binary64 range")
    return result


def _scan_number(text: str, i: int, backend: str):
    """Scan an unsigned number at position i.

    Returns (value, end) or None when no digit starts here.  The value is a
    Fraction on the exact backend and a float on the float backend.
    """
    m = _INT_RE.match(text, i)
    if not m:
        return None
    end = m.end()
    numerator = int(m.group(0))
    slash = _skip_ws(text, end)
    if slash < len(text) and text[slash] == "/":
        den_start = _skip_ws(text, slash + 1)
        m2 = _INT_RE.match(text, den_start)
        if not m2:
            raise ParseError(den_start, ("denominator digits",))
        denominator = int(m2.group(0))
        if denominator == 0:
            raise ParseError(den_start, ("nonzero denominator",))
        value = Fraction(numerator, denominator)
        end = m2.end()
    elif end < len(text) and text[end] == ".":
        if backend != FLOAT:
            raise ParseError(
                i, ("integer or fraction (decimal floats need the float backend)",)
            )
        m2 = _INT_RE.match(text, end + 1)
        if not m2:
            raise ParseError(end + 1, ("fractional digits",))
        return _to_float(text[i : m2.end()], i), m2.end()
    else:
        value = Fraction(numerator)
    if backend == FLOAT:
        return _to_float(value, i), end
    return value, end


def scan_octonion(text: str, start: int, backend: str = EXACT) -> tuple[Octonion, int]:
    """Greedily scan one octonion literal starting at ``start``.

    Consumes as many signed terms as parse; stops before a sign that is not
    followed by a term.  Returns the value and the end position.
    """
    one = 1.0 if backend == FLOAT else Fraction(1)
    zero = 0.0 if backend == FLOAT else Fraction(0)
    coeffs = [zero] * DIM
    i = _skip_ws(text, start)
    seen_term = False
    while True:
        mark = i
        j = _skip_ws(text, i)
        negative = False
        if j < len(text) and text[j] in "+-":
            negative = text[j] == "-"
            j = _skip_ws(text, j + 1)
        elif seen_term:
            break

        number = _scan_number(text, j, backend)
        if number is not None:
            value, j = number
            k = _skip_ws(text, j)
            word = _scan_word(text, k)
            if word in UNIT_NAMES:
                coeffs[UNIT_NAMES[word]] += -value if negative else value
                i = k + len(word)
            else:
                coeffs[0] += -value if negative else value
                i = j
            seen_term = True
            continue

        word = _scan_word(text, j)
        if word in UNIT_NAMES:
            coeffs[UNIT_NAMES[word]] += -one if negative else one
            i = j + len(word)
            seen_term = True
            continue

        if not seen_term:
            raise ParseError(j, ("number", "unit e0..e7"), text[j : j + 1])
        i = mark  # the sign belongs to whatever follows the literal
        break
    if backend == FLOAT:
        for k, v in enumerate(coeffs):
            if not math.isfinite(v):
                raise NonFiniteError(
                    f"the e{k} coefficient of the literal at offset {start} "
                    "sums beyond the binary64 range"
                )
    return Octonion(coeffs), i


def parse_octonion(text: str, backend: str = EXACT) -> Octonion:
    """Parse a complete octonion literal; the whole string must be consumed."""
    value, end = scan_octonion(text, 0, backend)
    end = _skip_ws(text, end)
    if end != len(text):
        if text[end] in "+-":
            # A sign the greedy scan gave back: no term followed it.
            term_at = _skip_ws(text, end + 1)
            raise ParseError(
                term_at, ("number", "unit e0..e7"), text[term_at : term_at + 1]
            )
        raise ParseError(end, ("'+'", "'-'", "end of input"), text[end : end + 1])
    return value


def format_scalar(value: Scalar) -> str:
    """Render one coefficient: ``3``, ``-3/4``, or a float as its shortest
    round-trip decimal, written positionally (``0.00001``, never ``1e-05``)."""
    if isinstance(value, float):
        text = repr(value)
        if "e" in text or "E" in text:
            # repr switched to scientific notation; expand the same shortest
            # decimal positionally so it still round-trips and re-parses.
            text = format(Decimal(text), "f")
        return text
    return str(value)


def format_octonion(x: Octonion) -> str:
    """Render in the shared text format, e.g. ``2 - 3/4e1 + e7``."""
    return format_terms(x.c)


def format_terms(coefficients) -> str:
    """The text format of 8 coefficients given as Fractions or plain floats."""
    parts: list[str] = []
    for k, v in enumerate(coefficients):
        if not v:
            continue
        magnitude = abs(v)
        if k == 0:
            body = format_scalar(magnitude)
        elif magnitude == 1:
            body = f"e{k}"
        else:
            body = f"{format_scalar(magnitude)}e{k}"
        if not parts:
            parts.append(("-" if v < 0 else "") + body)
        else:
            parts.append(("- " if v < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


def format_coefficients(x: Octonion) -> str:
    """Machine rendering: the 8 coefficients, comma-separated."""
    if x.backend == FLOAT:
        return format_float_coefficients(x.c)
    return ",".join(str(n) if d == 1 else f"{n}/{d}" for n, d in x.ratios())


def format_float_coefficients(values) -> str:
    """Machine rendering of 8 binary64 coefficients given as plain floats.

    Each is written by `format_scalar`'s rule: its shortest round-trip
    decimal, positionally.  ``repr`` is used as is unless one of them
    switched to scientific notation.  `format_float_rows` writes the same
    text for many rows at once.
    """
    text = ",".join(map(repr, values))
    if "e" in text:
        return ",".join(format_scalar(v) for v in values)
    return text


def format_float_rows(rows) -> list[str]:
    """`format_float_coefficients` of each row of a C-contiguous ``(m, 8)``
    float64 array.

    All rows are written by one ``orjson.dumps``, whose Ryū writes each
    value's shortest round-trip digits, positionally from 1e-5 up to 1e16:
    there its text is `format_scalar`'s.  Only a row holding an ``e`` is
    rendered again per value, and one holding an ``n``: orjson writes a
    non-finite value as ``null``.
    """
    import orjson  # imported here: only the float machine matrix needs it

    if not len(rows):
        return []
    cells = (
        orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    )
    for k, cell in enumerate(cells):
        if "e" in cell or "n" in cell:
            cells[k] = format_float_coefficients(rows[k].tolist())
    return cells
