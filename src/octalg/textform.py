"""The shared octonion text format: parsing and rendering.

An octonion is written as a signed sum of terms, one term per basis unit::

    2 - 3/4e1 + e7

A sign must be followed by a term.  Coefficients are decimal integers, fractions ``p/q``, or (float backend
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

from .core import DIM, EXACT, FLOAT, Octonion
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

    Reads signed terms while a sign follows the last one; a term is a
    number with an optional unit after it, or a lone unit.  A term missing
    where the literal starts or after a sign is a ParseError at the offset
    where it should start, raised after the float sum check.  Returns the
    value and the end of the last term.
    """
    one = 1.0 if backend == FLOAT else Fraction(1)
    zero = 0.0 if backend == FLOAT else Fraction(0)
    coeffs = [zero] * DIM
    i = start
    missing = None
    while True:
        j = _skip_ws(text, i)
        negative = False
        if j < len(text) and text[j] in "+-":
            negative = text[j] == "-"
            j = _skip_ws(text, j + 1)
        elif i != start:  # a term was read and no sign follows it
            break
        number = _scan_number(text, j, backend)
        value, end = (one, j) if number is None else number
        k = _skip_ws(text, end)
        word = _scan_word(text, k)
        if word in UNIT_NAMES:
            unit, i = UNIT_NAMES[word], k + len(word)
        elif number is not None:
            unit, i = 0, end
        else:
            missing = j
            break
        coeffs[unit] += -value if negative else value
    if backend == FLOAT:
        for k, v in enumerate(coeffs):
            if not math.isfinite(v):
                raise NonFiniteError(
                    f"the e{k} coefficient of the literal at offset {start} "
                    "sums beyond the binary64 range"
                )
    if missing is not None:
        raise ParseError(missing, ("number", "unit e0..e7"), text[missing : missing + 1])
    return Octonion(coeffs), i


def parse_octonion(text: str, backend: str = EXACT) -> Octonion:
    """Parse a complete octonion literal; the whole string must be consumed."""
    value, end = scan_octonion(text, 0, backend)
    end = _skip_ws(text, end)
    if end != len(text):
        raise ParseError(end, ("'+'", "'-'", "end of input"), text[end : end + 1])
    return value


def _positional(text: str) -> str:
    """A float's shortest round-trip digits ``text``, written positionally:
    text in scientific notation (``1e-05``, ``1e-17``) is expanded to the
    same digits (``0.00001``), so it still round-trips and re-parses."""
    return format(Decimal(text), "f") if "e" in text else text


def format_scalar(value: float) -> str:
    """Render one float coefficient as its shortest round-trip decimal,
    written positionally (``0.00001``, never ``1e-05``)."""
    return _positional(repr(value))


def coefficient_tokens(x: Octonion) -> list[str]:
    """The 8 coefficient texts every rendering of ``x`` is written from:
    ``n`` or ``n/d`` from `Octonion.ratios` on exact, `format_scalar` on float."""
    if x.backend == FLOAT:
        return list(map(format_scalar, x.c))
    return [str(n) if d == 1 else f"{n}/{d}" for n, d in x.ratios()]


def format_octonion(x: Octonion) -> str:
    """Render in the shared text format, e.g. ``2 - 3/4e1 + e7``, from the
    `coefficient_tokens` alone: a zero token is skipped, a leading ``-``
    becomes the term's sign (unspaced on the first term, where a plus is
    left out), and a unit's coefficient of magnitude ``1`` is left out."""
    text = ""
    for token, unit in zip(coefficient_tokens(x), ("", "e1", "e2", "e3", "e4", "e5", "e6", "e7")):
        if token in {"0", "0.0", "-0.0"}:
            continue
        if token[0] == "-":
            text += " - "
            token = token[1:]
        else:
            text += " + "
        text += unit if unit and token in ("1", "1.0") else token + unit
    if not text:
        return "0"
    if text[1] == "+":
        return text[3:]
    return "-" + text[3:]


def format_coefficients(x: Octonion) -> str:
    """Machine rendering: the 8 coefficients, comma-separated."""
    return ",".join(coefficient_tokens(x))


def format_float_rows(rows) -> list[str]:
    """The machine rendering of each row of a C-contiguous ``(m, 8)`` float64
    array: its values comma-separated, each as `format_scalar` writes it.

    All rows are written by one ``orjson.dumps``, whose Ryū writes each
    value's shortest round-trip digits, positionally from 1e-5 up to 1e16,
    and in scientific notation outside: only those tokens are expanded, by
    `_positional` from orjson's own digits.  A row holding ``null``, which
    is how orjson writes a non-finite value, is rendered per value.
    """
    import orjson  # imported here: only the float machine matrix needs it

    if not len(rows):
        return []
    cells = (
        orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    )
    for k, cell in enumerate(cells):
        if "n" in cell:
            cells[k] = ",".join(map(format_scalar, rows[k].tolist()))
        elif "e" in cell:
            cells[k] = ",".join(map(_positional, cell.split(",")))
    return cells
