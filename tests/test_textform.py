"""The shared octonion text format."""

from fractions import Fraction

import pytest
from hypothesis import given
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
from octalg.textform import format_float_coefficients, format_scalar

from tests.strategies import octonions, unit

# Binary64 values at the edges of repr's positional/scientific switch and of
# the range: subnormals, the smallest normal, +-1e308, signed zeros, 1e-7 and
# 1e16 (repr's first scientific values), and the non-finite values.
_EDGE_FLOATS = st.sampled_from([
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.0, -0.0, 1e-7, 0.0001, 1e16, 9999999999999998.0, -1e16,
    float("nan"), float("inf"), float("-inf"),
])
_FLOATS = st.floats() | _EDGE_FLOATS


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

    def test_machine_coefficients(self):
        x = Octonion([1, 0, Fraction(-3, 4), 0, 0, 0, 0, 2])
        assert format_coefficients(x) == "1,0,-3/4,0,0,0,0,2"

    @given(st.lists(_FLOATS, min_size=8, max_size=8))
    def test_float_fast_join_matches_per_value_rendering(self, values):
        expected = ",".join(format_scalar(v) for v in values)
        assert format_float_coefficients(values) == expected
        # The values may be non-finite, which Octonion() refuses.
        assert format_coefficients(_new(values, None)) == expected

    @given(octonions, octonions)
    def test_exact_machine_rendering_matches_fractions(self, x, y):
        for value in (x, x * y, x - y * Fraction(5, 3)):
            expected = ",".join(format_scalar(v) for v in value.c)
            assert format_coefficients(value) == expected
