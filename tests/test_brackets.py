"""The four bracket constructions and the identities they satisfy."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from octalg import (
    BackendMismatchError,
    InvalidWordError,
    NonFiniteError,
    Octonion,
    ZeroInverseError,
    additive_associator,
    additive_commutator,
    expand_word,
    multiplicative_associator,
    multiplicative_commutator,
    schafer_residual,
    tree_products,
)

from tests.strategies import (
    float_edge_operands,
    float_octonions,
    nonzero_octonions,
    octonions,
    unit,
)

ZERO = Octonion.zero()
ONE = Octonion.one()


class TestAdditiveCommutator:
    def test_self_commutes(self):
        x = Octonion.parse("1 - 2e3 + e6")
        assert additive_commutator(x, x) == ZERO

    def test_basis_pair(self):
        assert additive_commutator(unit(1), unit(2)) == 2 * unit(3)

    @given(octonions)
    def test_reals_are_central(self, x):
        assert additive_commutator(ONE, x) == ZERO
        assert additive_commutator(Octonion.from_real(Fraction(-7, 3)), x) == ZERO

    @given(octonions, octonions)
    def test_purely_imaginary(self, x, y):
        assert additive_commutator(x, y).c[0] == 0


class TestAdditiveAssociator:
    def test_quaternion_triple_associates(self):
        assert additive_associator(unit(1), unit(2), unit(3)) == ZERO

    def test_nonassociating_triple(self):
        assert additive_associator(unit(1), unit(2), unit(4)) == -2 * unit(7)

    @given(octonions, octonions)
    def test_real_factor_associates(self, y, z):
        assert additive_associator(ONE, y, z) == ZERO

    @given(octonions, octonions)
    def test_alternating(self, x, y):
        assert additive_associator(x, x, y) == ZERO
        assert additive_associator(x, y, x) == ZERO
        assert additive_associator(y, x, x) == ZERO


class TestMultiplicativeCommutator:
    def test_self(self):
        x = Octonion.parse("2 + e5")
        assert multiplicative_commutator(x, x) == ONE

    def test_basis_pair(self):
        assert multiplicative_commutator(unit(1), unit(2)) == -ONE

    @given(nonzero_octonions)
    def test_real_commutes(self, y):
        assert multiplicative_commutator(ONE, y) == ONE

    @given(nonzero_octonions, nonzero_octonions)
    def test_conversion_contract(self, x, y):
        c = multiplicative_commutator(x, y)
        assert (x * y) * c == y * x
        assert x * y == (y * x) * c.conjugate()

    @given(nonzero_octonions, nonzero_octonions)
    def test_unit_norm(self, x, y):
        assert multiplicative_commutator(x, y).norm_sq() == 1

    @given(nonzero_octonions, nonzero_octonions)
    def test_duality_with_additive(self, x, y):
        additive_zero = additive_commutator(x, y) == ZERO
        multiplicative_one = multiplicative_commutator(x, y) == ONE
        assert additive_zero == multiplicative_one

    def test_zero_operand_rejected(self):
        with pytest.raises(ZeroInverseError, match="'y'"):
            multiplicative_commutator(ONE, ZERO)
        with pytest.raises(ZeroInverseError, match="'x'"):
            multiplicative_commutator(ZERO, ONE)


class TestMultiplicativeAssociator:
    def test_associating_triple(self):
        assert multiplicative_associator(unit(1), unit(2), unit(3)) == ONE

    def test_nonassociating_triple(self):
        assert multiplicative_associator(unit(1), unit(2), unit(4)) == -ONE

    @given(nonzero_octonions, nonzero_octonions)
    def test_real_factor_gives_identity(self, y, z):
        r = Octonion.from_real(Fraction(5, 2))
        assert multiplicative_associator(r, y, z) == ONE
        assert multiplicative_associator(y, r, z) == ONE
        assert multiplicative_associator(y, z, r) == ONE

    @given(nonzero_octonions, nonzero_octonions, nonzero_octonions)
    def test_conversion_contract(self, x, y, z):
        a = multiplicative_associator(x, y, z)
        assert ((x * y) * z) * a == x * (y * z)
        assert (x * y) * z == (x * (y * z)) * a.conjugate()

    @given(nonzero_octonions, nonzero_octonions, nonzero_octonions)
    def test_inverse_of_product_lemma(self, x, y, z):
        assert ((x * y) * z).inverse() == z.inverse() * (y.inverse() * x.inverse())

    @given(nonzero_octonions, nonzero_octonions, nonzero_octonions)
    def test_agrees_with_inverse_times_product(self, x, y, z):
        direct = multiplicative_associator(x, y, z)
        assert direct == ((x * y) * z).inverse() * (x * (y * z))

    @given(nonzero_octonions, nonzero_octonions, nonzero_octonions)
    def test_unit_norm(self, x, y, z):
        assert multiplicative_associator(x, y, z).norm_sq() == 1

    @given(nonzero_octonions, nonzero_octonions)
    def test_duality_with_additive(self, x, y):
        # z inside the subalgebra generated by x and y associates with them.
        z = (x * y) * x
        if not z:
            return
        assert additive_associator(x, y, z) == ZERO
        assert multiplicative_associator(x, y, z) == ONE

    def test_zero_operand_rejected(self):
        with pytest.raises(ZeroInverseError, match="'z'"):
            multiplicative_associator(ONE, ONE, ZERO)


class TestSchaferResidual:
    def test_real_slot(self):
        x, y, z = unit(1), unit(2), unit(4)
        assert schafer_residual(ONE, x, y, z) == ZERO

    def test_basis_case(self):
        assert schafer_residual(unit(1), unit(2), unit(4), unit(7)) == ZERO

    def test_basis_case_against_expanded_oracle(self):
        # Same residual recomputed term by term with raw products only.
        a, x, y, z = unit(1), unit(2), unit(4), unit(7)

        def assoc(u, v, w):
            return u * (v * w) - (u * v) * w

        lhs = a * assoc(x, y, z) + assoc(a, x, y) * z
        rhs = assoc(a * x, y, z) - assoc(a, x * y, z) + assoc(a, x, y * z)
        assert lhs - rhs == ZERO
        assert schafer_residual(a, x, y, z) == lhs - rhs

    @settings(max_examples=100)
    @given(octonions, octonions, octonions, octonions)
    def test_always_zero(self, a, x, y, z):
        assert schafer_residual(a, x, y, z) == ZERO

    def test_makes_each_shared_subproduct_once(self, count_products):
        a, x, y, z = (Octonion.parse(t) for t in ("1/2 + e1", "e2 - 3e5", "2e4 + e6", "e7 - 1"))
        schafer_residual(a, x, y, z)
        assert len(count_products) == 14

    @staticmethod
    def _five_associators(a, x, y, z):
        # Each bracket written out as ``u*(v*w) - (u*v)*w``, the formula of
        # `additive_associator`, which refuses the non-finite edge operands:
        # the reference the shared subproducts must reproduce bit for bit.
        def assoc(u, v, w):
            return u * (v * w) - (u * v) * w

        lhs = a * assoc(x, y, z) + assoc(a, x, y) * z
        rhs = assoc(a * x, y, z) - assoc(a, x * y, z) + assoc(a, x, y * z)
        return lhs - rhs

    @given(float_octonions, float_octonions, float_octonions, float_octonions)
    def test_float_matches_five_associators_bitwise(self, a, x, y, z):
        assert _hex(schafer_residual(a, x, y, z)) == _hex(self._five_associators(a, x, y, z))

    def test_float_edge_operands_match_five_associators_bitwise(self):
        # Signed zeros, subnormals, products near overflow, and inf and NaN
        # from overflow, in every slot.
        for a, x, y, z in itertools.product(float_edge_operands(), repeat=4):
            assert _hex(schafer_residual(a, x, y, z)) == _hex(
                self._five_associators(a, x, y, z)
            ), (a, x, y, z)


def _hex(value):
    """Bit patterns of the coefficients: tells -0.0 from 0.0."""
    return [float.hex(v) for v in value.c]


def all_orders_agree(x, y, word, tolerance=0) -> bool:
    """Whether the word's product is the same under every evaluation order."""
    reference, *others = tree_products(expand_word(word, x, y))
    return all(reference.equals(other, tolerance) for other in others)


class TestBiassociativity:
    def test_three_letter_word(self):
        x = Octonion.parse("1 + e1 - e4")
        y = Octonion.parse("2 - e2")
        assert all_orders_agree(x, y, ["x", "y", "x^-1"])

    @given(nonzero_octonions, nonzero_octonions)
    def test_five_letter_word(self, x, y):
        assert all_orders_agree(x, y, ["x", "y", "x", "y~", "x^-1"])

    def test_scalar_letters(self):
        x = Octonion.parse("1 + e3")
        y = Octonion.parse("e5 - e6")
        assert all_orders_agree(x, y, ["x", Fraction(3, 7), "y", "y", 2])

    def test_third_generator_rejected(self):
        with pytest.raises(InvalidWordError, match="'z'"):
            expand_word(["x", "y", "z"], ONE, ONE)

    def test_inverse_of_zero_generator(self):
        with pytest.raises(ZeroInverseError):
            expand_word(["x", "x^-1"], ZERO, ONE)

    def test_unknown_symbol_is_refused_where_it_stands(self):
        # Symbols are read in order: the bad one is named before a later
        # inverse of zero is tried, and after an earlier one.
        with pytest.raises(InvalidWordError, match="'z'"):
            expand_word(["x", "z", "x^-1"], ZERO, ONE)
        with pytest.raises(ZeroInverseError):
            expand_word(["x^-1", "z"], ZERO, ONE)

    @pytest.mark.parametrize("symbol", [["x"], {"x": 1}, {"y"}, None, b"x"])
    def test_unhashable_or_foreign_symbol_is_refused(self, symbol):
        with pytest.raises(InvalidWordError, match="unknown word symbol"):
            expand_word(["x", symbol], ONE, ONE)

    def test_each_symbol_value_is_made_once(self, monkeypatch):
        made = []
        for method in ("inverse", "conjugate"):
            original = getattr(Octonion, method)

            def counting(self, original=original, method=method):
                made.append(method)
                return original(self)

            monkeypatch.setattr(Octonion, method, counting)
        x, y = Octonion.parse("1 + e1 - e4"), Octonion.parse("2 - e2")
        expand_word(["x^-1", "x~", "y^-1"], x, y)
        once = sorted(made)
        made.clear()
        word = ["x^-1", "x~", "y", "x^-1", 2, "x~", "x^-1", "y^-1", "y"]
        values = expand_word(word, x, y)
        assert sorted(made) == once
        assert values[0] is values[3] is values[6]
        assert values[1] is values[5]
        assert values[2] is values[8] is y
        assert values == [
            x.inverse(), x.conjugate(), y, x.inverse(), Octonion.from_real(2),
            x.conjugate(), x.inverse(), y.inverse(), y,
        ]

    @pytest.mark.parametrize(
        "scalar, message",
        [
            (10**400, "a scalar in the word is beyond the binary64 range"),
            (Fraction(-(10**400), 3), "a scalar in the word is beyond the binary64 range"),
            (Fraction(1, 10**400), "a scalar in the word underflows binary64 to 0"),
        ],
        ids=["int-overflow", "fraction-overflow", "fraction-underflow"],
    )
    def test_float_word_refuses_a_scalar_binary64_cannot_hold(self, scalar, message):
        x = Octonion.parse("1 + e3", backend="float")
        with pytest.raises(NonFiniteError) as info:
            expand_word(["x", scalar], x, x)
        assert str(info.value) == message

    def test_float_word_keeps_a_zero_and_a_subnormal_scalar(self):
        x = Octonion.parse("1 + e3", backend="float")
        zero, tiny = expand_word([Fraction(0), Fraction(1, 10**310)], x, x)
        assert zero.c == (0.0,) * 8
        assert tiny.real == 1e-310

    def test_exact_word_refuses_a_float_scalar(self):
        with pytest.raises(BackendMismatchError, match="^float scalar in an exact-backend word$"):
            expand_word(["x", 0.5], ONE, ONE)

    def test_float_backend_with_tolerance(self):
        x = Octonion.parse("1 + e1 - 2e4", backend="float")
        y = Octonion.parse("3 - 1/2e2", backend="float")
        assert all_orders_agree(x, y, ["x", "y", "x^-1", "y~", "x"], 1e-12)
