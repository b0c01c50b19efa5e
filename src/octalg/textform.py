"""The shared octonion text format: parsing and rendering.

An octonion is written as a signed sum of terms, one term per basis unit::

    2 - 3/4e1 + e7

A sign must be followed by a term.  Coefficients are decimal integers, fractions ``p/q``, or (float backend
only) plain decimal floats.  An exact literal is read straight into the
backend's own form, integer numerators over one reduced denominator, and
builds no Fraction.  On the float backend every coefficient, and
every sum of terms on one unit, must be finite in binary64; anything
larger raises NonFiniteError, as does a nonzero number that rounds to 0.
The real unit is a bare coefficient; ``e1`` to ``e7`` name the imaginary
units (a lone ``e0`` is also accepted and means 1).  Whitespace is
insignificant.  Scientific notation is not
supported: ``e`` followed by a digit always starts a unit name.
"""

from __future__ import annotations

import math
import re
from math import lcm

from .core import DIM, EXACT, FLOAT, Octonion, _new, _range_error, _to_binary64
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


def _to_float(number, offset: int) -> float:
    """``number``, a decimal text or an exact ``(numerator, denominator)``
    int pair, as binary64; NonFiniteError when it is beyond that range, or
    nonzero and rounds to 0."""
    what = f"the number at offset {offset}"
    if not isinstance(number, str):
        return _to_binary64(*number, what)
    result = float(number)
    if not math.isfinite(result) or not result and number.strip("0."):
        raise _range_error(what, result)
    return result


def _scan_number(text: str, i: int, backend: str):
    """Scan an unsigned number at position i.

    Returns (value, end) or None when no digit starts here.  The value is a
    ``(numerator, denominator)`` int pair on the exact backend, not
    necessarily reduced, and a float on the float backend.
    """
    m = _INT_RE.match(text, i)
    if not m:
        return None
    end = m.end()
    numerator = int(m.group(0))
    denominator = 1
    slash = _skip_ws(text, end)
    if slash < len(text) and text[slash] == "/":
        den_start = _skip_ws(text, slash + 1)
        m2 = _INT_RE.match(text, den_start)
        if not m2:
            raise ParseError(den_start, ("denominator digits",), text[den_start : den_start + 1])
        denominator = int(m2.group(0))
        if denominator == 0:
            raise ParseError(den_start, ("nonzero denominator",), text[den_start])
        end = m2.end()
    elif end < len(text) and text[end] == ".":
        if backend != FLOAT:
            raise ParseError(
                i, ("integer or fraction (decimal floats need the float backend)",)
            )
        m2 = _INT_RE.match(text, end + 1)
        if not m2:
            raise ParseError(end + 1, ("fractional digits",), text[end + 1 : end + 2])
        return _to_float(text[i : m2.end()], i), m2.end()
    if backend == FLOAT:
        return _to_float((numerator, denominator), i), end
    return (numerator, denominator), end


def scan_octonion(text: str, start: int, backend: str = EXACT) -> tuple[Octonion, int]:
    """Greedily scan one octonion literal starting at its first character
    at or after ``start``, past any whitespace; a float sum beyond the
    binary64 range is a NonFiniteError naming that character's offset.

    Reads signed terms while a sign follows the last one; a term is a
    number with an optional unit after it, or a lone unit.  A term missing
    where the literal starts or after a sign is a ParseError at the offset
    where it should start, raised after the float sum check.  Returns the
    value and the end of the last term.
    """
    one = 1.0 if backend == FLOAT else (1, 1)
    terms = []  # (unit, number, negative), in the order read
    i = start = _skip_ws(text, start)
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
        terms.append((unit, value, negative))
    if backend == FLOAT:
        coeffs = [0.0] * DIM
        for unit, value, negative in terms:
            coeffs[unit] += -value if negative else value
        for k, v in enumerate(coeffs):
            if not math.isfinite(v):
                raise NonFiniteError(
                    f"the e{k} coefficient of the literal at offset {start} "
                    "sums beyond the binary64 range"
                )
    if missing is not None:
        raise ParseError(missing, ("number", "unit e0..e7"), text[missing : missing + 1])
    if backend == FLOAT:
        return _new(coeffs, None), i
    # Every term over the lcm of the denominators; _new reduces the sums by
    # their gcd to the canonical form Octonion(Fraction sums) has.
    d = lcm(*[den for _, (_, den), _ in terms])
    coeffs = [0] * DIM
    for unit, (n, den), negative in terms:
        coeffs[unit] += (-n if negative else n) * (d // den)
    return _new(coeffs, d), i


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
    if "e" not in text:
        return text
    # Imported here, since only such a text needs it, and as a plain import:
    # a `from` import of a loaded module costs about 0.7 µs a call, against
    # 0.09 µs, and a float matrix expands hundreds of such tokens.
    import decimal

    return format(decimal.Decimal(text), "f")


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


def _term_text(tokens) -> str:
    """The shared text format written from 8 coefficient tokens: a zero
    token is skipped, a leading ``-`` becomes the term's sign (unspaced on
    the first term, where a plus is left out), and a unit's coefficient of
    magnitude ``1`` is left out."""
    text = ""
    for token, unit in zip(tokens, ("", "e1", "e2", "e3", "e4", "e5", "e6", "e7")):
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


def format_octonion(x: Octonion) -> str:
    """Render in the shared text format, e.g. ``2 - 3/4e1 + e7``: `_term_text`
    of the `coefficient_tokens` alone."""
    return _term_text(coefficient_tokens(x))


def format_coefficients(x: Octonion) -> str:
    """Machine rendering: the 8 coefficients, comma-separated."""
    return ",".join(coefficient_tokens(x))


def format_float_rows(rows) -> list[str]:
    """The machine rendering of each row of a C-contiguous ``(m, 8)`` float64
    array: its values comma-separated, each as `format_scalar` writes it.
    Every float rendering of a matrix and its products is written from these
    tokens, the text format by `_term_text` of each row's tokens.

    All rows are written by one ``orjson.dumps``, whose Ryū writes each
    value's shortest round-trip digits, positionally from 1e-5 up to 1e16,
    and in scientific notation outside.  The dump's text is scanned once for
    ``n`` and once for ``e``: a block holding ``null``, which is how orjson
    writes a non-finite value, is rendered per value, and only when an ``e``
    is present are the cells that hold one expanded, by `_positional` from
    orjson's own digits.
    """
    import orjson  # imported here: only the float matrix commands need it

    if not len(rows):
        return []
    text = orjson.dumps(rows, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode()
    if "n" in text:
        return [",".join(map(format_scalar, row)) for row in rows.tolist()]
    cells = text.split("],[")
    if "e" in text:
        for k, cell in enumerate(cells):
            if "e" in cell:
                cells[k] = ",".join(map(_positional, cell.split(",")))
    return cells
