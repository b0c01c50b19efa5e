"""The shared octonion text format."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from octalg import (
    NonFiniteError,
    Octonion,
    ParseError,
    format_coefficients,
    format_octonion,
    parse_octonion,
)
from octalg.core import _new
from octalg import textform
from octalg.textform import format_float_rows, format_scalar
from octalg.trees import associator_matrix

from tests.strategies import (
    LITERAL_ERROR_IDS,
    LITERAL_ERRORS,
    assert_outcome,
    backends,
    octonions,
    source_text,
    unit,
)

# Binary64 values at the edges of repr's positional/scientific switch and of
# the range: subnormals, the smallest normal, +-1e308, signed zeros, 1e-7 and
# 1e16 (repr's first scientific values), and the non-finite values.
_EDGE_FLOATS = st.sampled_from([
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.0, -0.0, 1e-7, 0.0001, 1e16, 9999999999999998.0, -1e16,
    float("nan"), float("inf"), float("-inf"),
])
_FLOATS = st.floats() | _EDGE_FLOATS

# The finite extremes of binary64 (smallest subnormal, smallest normal, 1e308,
# largest finite), each sign, and the signed zeros.
_EXTREMES = [5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308, 0.0]
_EXTREME_FLOATS = st.sampled_from(_EXTREMES + [-v for v in _EXTREMES])


class TestParse:
    def test_spec_format(self):
        x = parse_octonion("2 - 3/4e1 + e7")
        assert x.c == (Fraction(2), Fraction(-3, 4), 0, 0, 0, 0, 0, Fraction(1))

    def test_whitespace_insignificant(self):
        assert parse_octonion("2-3/4e1+e7") == parse_octonion(" 2 -  3/4 e1 + e7 ")

    def test_single_unit(self):
        assert parse_octonion("e5") == unit(5)
        assert parse_octonion("-e5") == -unit(5)
        assert parse_octonion("e0") == Octonion.one()

    def test_bare_coefficient_is_real(self):
        assert parse_octonion("7") == Octonion.from_real(Fraction(7))
        assert parse_octonion("-3/2") == Octonion.from_real(Fraction(-3, 2))

    def test_leading_sign(self):
        assert parse_octonion("+2e3") == 2 * unit(3)

    def test_repeated_units_accumulate(self):
        assert parse_octonion("e1 + e1") == 2 * unit(1)

    def test_float_backend(self):
        x = parse_octonion("1.5 - 0.25e2", backend="float")
        assert x.backend == "float"
        assert x.c[0] == 1.5
        assert x.c[2] == -0.25

    def test_fraction_on_float_backend(self):
        x = parse_octonion("3/4e1", backend="float")
        assert x.c[1] == 0.75

    def test_float_rejected_on_exact_backend(self):
        with pytest.raises(ParseError, match="float backend"):
            parse_octonion("1.5")

    def test_e_digit_is_a_unit_not_an_exponent(self):
        # 1.5e1 is 1.5 * e1, not 15.0: exponent notation is not part of the
        # format because eK names a unit.
        x = parse_octonion("1.5e1", backend="float")
        assert x.c[1] == 1.5
        assert x.c[0] == 0.0

    def test_error_offset_and_expected(self):
        with pytest.raises(ParseError) as info:
            parse_octonion("2 + ")
        assert info.value.offset == 4
        assert info.value.expected

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="denominator"):
            parse_octonion("1/0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as info:
            parse_octonion("2 x")
        assert info.value.offset == 2

    @pytest.mark.parametrize(
        "text",
        [
            "1" + "0" * 400 + ".0e1",  # a decimal float that reads as inf
            "1" + "0" * 400,  # an integer too large for a float
            "1" + "0" * 400 + "/3",  # a fraction too large for a float
            "1" + "0" * 308 + ".0 + 1" + "0" * 308 + ".0",  # a finite sum overflows
        ],
    )
    def test_non_finite_float_literal_rejected(self, text):
        with pytest.raises(NonFiniteError, match="binary64"):
            parse_octonion(text, backend="float")
        # The exact backend holds the same integers without loss.
        if "." not in text:
            assert parse_octonion(text).real > 10**300

    def test_largest_finite_float_literal_accepted(self):
        x = parse_octonion("1" + "0" * 308 + ".0", backend="float")
        assert x.real == 1e308

    def test_unit_name_longer_than_unit(self):
        # e10 is an identifier, not e1 followed by 0.
        with pytest.raises(ParseError):
            parse_octonion("e10")

    @given(source_text, backends)
    def test_arbitrary_text_raises_only_value_errors(self, text, backend):
        try:
            parse_octonion(text, backend)
        except ValueError:
            pass

    @pytest.mark.parametrize("text, backend, outcome, _", LITERAL_ERRORS, ids=LITERAL_ERROR_IDS)
    def test_error_table(self, text, backend, outcome, _):
        assert_outcome(parse_octonion, text, backend, outcome)


def _reference_text(x: Octonion) -> str:
    """The text format written from the coefficient values, not from their
    tokens: an oracle for `format_octonion`."""
    terms = []
    for k, v in enumerate(x.c):
        if not v:
            continue
        magnitude = abs(v)
        number = format_scalar(magnitude) if isinstance(v, float) else str(magnitude)
        body = number if k == 0 else f"e{k}" if magnitude == 1 else f"{number}e{k}"
        if not terms:
            terms.append(("-" if v < 0 else "") + body)
        else:
            terms.append(("- " if v < 0 else "+ ") + body)
    return " ".join(terms) if terms else "0"


# Coefficients at the edges of the token rule: zeros of each sign, unit
# magnitudes, magnitudes below 1e-5 and at or above 1e16, and (float only,
# through core._new) the non-finite values.
_EXACT_COEFFICIENTS = st.sampled_from(
    [0, 1, -1, 2, Fraction(1, 10**6), Fraction(-7, 3 * 10**5), 10**16, -(10**20) - 1]
).map(Fraction) | st.fractions()
_TOKEN_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 2.0, 1e-6, -5e-324, 9.5e-6, 1e16, -1.5e16, 1e300,
    float("nan"), float("inf"), float("-inf"),
])
_VALUES = (
    st.lists(_EXACT_COEFFICIENTS, min_size=8, max_size=8).map(Octonion)
    | st.lists(_TOKEN_EDGE_FLOATS | st.floats(), min_size=8, max_size=8).map(
        lambda values: _new(values, None)
    )
)


class TestTokenRule:
    @given(_VALUES)
    @example(_new([-0.0, 1.0, -1.0, -0.0, 1e-6, 1e16, float("nan"), float("-inf")], None))
    @example(Octonion([0, 1, -1, 0, Fraction(1, 10**6), 10**16, -1, Fraction(-1, 2)]))
    def test_text_from_tokens_matches_the_values(self, x):
        assert format_octonion(x) == _reference_text(x)

    def test_signed_zero_and_unit_tokens(self):
        x = _new([-0.0, -1.0, 0.0, 1.0, 0.0, 0.0, 0.0, -0.0], None)
        assert format_octonion(x) == "-e1 + e3"
        assert format_octonion(_new([-1.0] + [0.0] * 7, None)) == "-1.0"


class TestRender:
    def test_spec_shape(self):
        x = Octonion([2, Fraction(-3, 4), 0, 0, 0, 0, 0, 1])
        assert format_octonion(x) == "2 - 3/4e1 + e7"

    def test_zero(self):
        assert format_octonion(Octonion.zero()) == "0"
        assert format_octonion(Octonion.zero("float")) == "0"

    def test_unit_coefficients_elided(self):
        assert format_octonion(unit(3)) == "e3"
        assert format_octonion(-unit(3)) == "-e3"

    def test_negative_real(self):
        assert format_octonion(Octonion.from_real(Fraction(-5))) == "-5"

    def test_float_rendering_round_trips(self):
        x = Octonion([0.1, -2.5, 1e-7, 0, 0, 0, 0, 3e8])
        text = format_octonion(x)
        assert "e-" not in text and "E" not in text  # no exponent syntax
        assert parse_octonion(text, backend="float") == x

    @given(octonions)
    def test_round_trip(self, x):
        assert parse_octonion(format_octonion(x)) == x

    @given(st.lists(_EXTREME_FLOATS, min_size=8, max_size=8))
    @example([5e-324, -0.0, 2.2250738585072014e-308, 1e308, -1e308,
              1.7976931348623157e308, -5e-324, 0.0])
    def test_float_round_trip_at_the_extremes(self, values):
        x = Octonion(values)
        back = parse_octonion(format_octonion(x), backend="float")
        assert back == x
        for sent, got in zip(values, back.c):
            # The text omits zero terms, so a -0.0 coefficient comes back +0.0.
            assert got.hex() == (sent.hex() if sent else (0.0).hex())

    def test_machine_coefficients(self):
        x = Octonion([1, 0, Fraction(-3, 4), 0, 0, 0, 0, 2])
        assert format_coefficients(x) == "1,0,-3/4,0,0,0,0,2"

    @given(st.lists(_FLOATS, min_size=8, max_size=8))
    def test_float_fast_join_matches_per_value_rendering(self, values):
        # The values may be non-finite: orjson's ``null``, and Octonion()
        # refuses them.
        expected = ",".join(format_scalar(v) for v in values)
        assert format_float_rows(np.array([values])) == [expected]
        assert format_coefficients(_new(values, None)) == expected

    @given(octonions, octonions)
    def test_exact_machine_rendering_matches_fractions(self, x, y):
        for value in (x, x * y, x - y * Fraction(5, 3)):
            expected = ",".join(map(str, value.c))
            assert format_coefficients(value) == expected


# Values at the edges of orjson's and repr's positional text, with the text
# each renders as: orjson writes [1e-5, 1e-4) positionally, where repr does
# not, and writes >= 1e16 and < 1e-5 in scientific notation, which
# `format_float_rows` renders again per value.
_ROW_EDGES = [
    (1e-5, "0.00001"),
    (9.999999999999999e-05, "0.00009999999999999999"),
    (1e-4, "0.0001"),
    (5e-324, "0." + "0" * 323 + "5"),
    (2.0**-1022, "0." + "0" * 307 + "22250738585072014"),
    (2.0**-17, "0.00000762939453125"),
    (2.0**53, "9007199254740992.0"),
    (9999999999999998.0, "9999999999999998.0"),
    (1e16, "10000000000000000"),
    (1.7976931348623157e308, "17976931348623157" + "0" * 292),
    (0.0, "0.0"),
    (-0.0, "-0.0"),
    (0.1, "0.1"),
]
_EDGE_VALUES = [value for value, _ in _ROW_EDGES]
_FINITE_ROWS = st.lists(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8)
    | st.lists(st.sampled_from(_EDGE_VALUES), min_size=8, max_size=8),
    min_size=1,
    max_size=6,
)


class TestFloatRows:
    """`format_float_rows` writes each row as `format_scalar` does per value."""

    @given(_FINITE_ROWS)
    @example([_EDGE_VALUES[:8], _EDGE_VALUES[5:]])
    def test_rows_match_per_value_rendering(self, rows):
        expected = [",".join(map(format_scalar, row)) for row in rows]
        assert format_float_rows(np.array(rows, dtype=np.float64)) == expected

    @pytest.mark.parametrize("value, text", _ROW_EDGES, ids=[repr(v) for v, _ in _ROW_EDGES])
    def test_edge_values(self, value, text):
        row = [value, -value, 1.0, value, 0.5, -value, value, 3.0]
        rendered, = format_float_rows(np.array([row]))
        assert rendered == ",".join(map(format_scalar, row))
        first = rendered.split(",")[0]
        assert first == text
        assert float(first).hex() == value.hex()

    def test_non_finite_rows_match_the_per_row_rendering(self):
        rows = [[math.nan, 1.0, -math.inf, 0.0, -0.0, 0.0, 0.0, 2.5], [math.inf] + [1e-7] * 7]
        assert format_float_rows(np.array(rows)) == [
            ",".join(map(format_scalar, row)) for row in rows
        ]

    @pytest.mark.parametrize(
        "row, text",
        [
            (
                [1.0, 1e-17, -2.5e-18, 0.0, 3e-17, -0.0, 1.5e-16, -4e-19],
                "1.0,0.00000000000000001,-0.0000000000000000025,0.0,"
                "0.00000000000000003,-0.0,0.00000000000000015,-0.0000000000000000004",
            ),
            (
                [1e16, 5e-324, 0.5, -1e16, 2.0**53, 1e-5, -5e-324, 12.25],
                "10000000000000000,0." + "0" * 323 + "5,0.5,-10000000000000000,"
                "9007199254740992.0,0.00001,-0." + "0" * 323 + "5,12.25",
            ),
        ],
        ids=["diagonal-like", "range-edges"],
    )
    def test_rows_mixing_scientific_and_positional_tokens(self, row, text):
        assert format_float_rows(np.array([row])) == [text]
        assert text == ",".join(map(format_scalar, row))

    def test_scientific_tokens_expand_from_orjson_digits(self, monkeypatch):
        # Only a row holding ``null`` is rendered per value: a finite row's
        # scientific tokens are expanded from the dump's own digits.
        def refuse(value):
            raise AssertionError("a finite row was rendered per value")

        monkeypatch.setattr(textform, "format_scalar", refuse)
        row = [1.0, 1e-17, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert format_float_rows(np.array([row])) == [
            "1.0,0.00000000000000001,0.0,0.0,0.0,0.0,0.0,0.0"
        ]

    def test_no_rows(self):
        assert format_float_rows(np.zeros((0, 8))) == []

    def test_float_matrix_is_c_contiguous(self):
        # orjson refuses an array that is not C-contiguous, and each matrix
        # row is passed as a slice of ``flat``.
        factors = [parse_octonion(t, "float") for t in ("1 + 2e1", "0.5 - e4", "e2 + 3e7", "2 - e5")]
        flat = associator_matrix(factors).flat
        assert flat.dtype == np.float64 and flat.shape == (25, 8)
        assert flat.flags.c_contiguous and flat[5:10].flags.c_contiguous
