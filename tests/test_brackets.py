"""The four bracket constructions and the identities they satisfy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from octalg import (
    InvalidWordError,
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

from tests.strategies import nonzero_octonions, octonions, unit

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

    def test_float_backend_with_tolerance(self):
        x = Octonion.parse("1 + e1 - 2e4", backend="float")
        y = Octonion.parse("3 - 1/2e2", backend="float")
        assert all_orders_agree(x, y, ["x", "y", "x^-1", "y~", "x"], 1e-12)
