"""Core arithmetic: the derived multiplication table against a hand oracle,
and the algebra laws the rest of the package leans on."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from octalg import (
    BackendMismatchError,
    InvalidToleranceError,
    NonFiniteError,
    Octonion,
    ZeroInverseError,
    cayley_dickson_product,
    checks,
    structure_table,
)

from tests.strategies import coefficients, nonzero_octonions, octonions, unit

# Products e_i * e_j for 1 <= i < j <= 7, expanded by hand from the doubling
# rule (a,b)(c,d) = (ac - conj(d) b, da + b conj(c)) with e1..e3 the embedded
# quaternion units i, j, k and e4..e7 = (0,1), (0,i), (0,j), (0,k).
# Example, e2*e5: (j,0)(0,i) -> (0, i*j) = (0, k) = e7.
HAND_TABLE = {
    (1, 2): (3, 1),
    (1, 3): (2, -1),
    (1, 4): (5, 1),
    (1, 5): (4, -1),
    (1, 6): (7, -1),
    (1, 7): (6, 1),
    (2, 3): (1, 1),
    (2, 4): (6, 1),
    (2, 5): (7, 1),
    (2, 6): (4, -1),
    (2, 7): (5, -1),
    (3, 4): (7, 1),
    (3, 5): (6, -1),
    (3, 6): (5, 1),
    (3, 7): (4, -1),
    (4, 5): (1, 1),
    (4, 6): (2, 1),
    (4, 7): (3, 1),
    (5, 6): (3, -1),
    (5, 7): (2, 1),
    (6, 7): (1, -1),
}


class TestMultiplicationTable:
    def test_hand_expanded_products(self):
        for (i, j), (k, sign) in HAND_TABLE.items():
            assert unit(i) * unit(j) == sign * unit(k), f"e{i}*e{j}"

    def test_emitted_table_matches_hand_oracle(self):
        index, sign = structure_table()
        for (i, j), (k, s) in HAND_TABLE.items():
            assert index[i][j] == k
            assert sign[i][j] == s

    def test_identity_element(self):
        one = Octonion.one()
        for k in range(8):
            assert one * unit(k) == unit(k)
            assert unit(k) * one == unit(k)

    def test_imaginary_squares(self):
        minus_one = -Octonion.one()
        for i in range(1, 8):
            assert unit(i) * unit(i) == minus_one

    def test_anticommutation(self):
        for i in range(1, 8):
            for j in range(1, 8):
                if i != j:
                    assert unit(i) * unit(j) == -(unit(j) * unit(i))

    @given(octonions, octonions)
    def test_table_product_matches_recursive_doubling(self, x, y):
        # Dual route: the runtime product uses the derived table, the oracle
        # re-runs the recursive construction on the full coefficient tuples.
        assert (x * y).c == cayley_dickson_product(x.c, y.c)

    def test_nonassociative_witness(self):
        lhs = (unit(1) * unit(2)) * unit(4)
        rhs = unit(1) * (unit(2) * unit(4))
        assert lhs != rhs
        assert lhs == unit(7)
        assert rhs == -unit(7)


class TestSpecifiedExamples:
    def test_multiply(self):
        x = Octonion.parse("2 - 3/4e1 + e7")
        assert Octonion.one() * x == x
        assert unit(1) * unit(2) == unit(3)
        assert unit(1) * unit(4) == unit(5)
        assert unit(1) * unit(6) == -unit(7)

    def test_conjugate(self):
        assert Octonion.one().conjugate() == Octonion.one()
        assert unit(3).conjugate() == -unit(3)
        assert Octonion.parse("2 + 3e1 - e7").conjugate() == Octonion.parse(
            "2 - 3e1 + e7"
        )

    def test_norm_sq(self):
        assert Octonion.zero().norm_sq() == 0
        assert unit(5).norm_sq() == 1
        assert Octonion([1] * 8).norm_sq() == 8

    def test_inverse(self):
        assert Octonion.one().inverse() == Octonion.one()
        assert unit(2).inverse() == -unit(2)
        assert Octonion.parse("3 + 4e1").inverse() == Octonion.parse("3/25 - 4/25e1")

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroInverseError, match="operand 0"):
            Octonion.zero().inverse()

    def test_inverse_with_overflowing_norm(self):
        # 1e200 is finite; its squared norm is not, and dividing by it would
        # round the inverse to zero.
        with pytest.raises(NonFiniteError, match="binary64"):
            Octonion([1e200] + [0.0] * 7).inverse()

    def test_inverse_with_underflowing_norm(self):
        # 1e-170 is nonzero; its square underflows to 0, so this is not a
        # zero octonion but a value the float backend cannot invert.
        with pytest.raises(NonFiniteError, match="underflows binary64"):
            Octonion([1e-170] + [0.0] * 7).inverse()
        with pytest.raises(ZeroInverseError):
            Octonion([-0.0] * 8).inverse()

    def test_equals(self):
        x = Octonion.parse("1 - e3")
        assert x.equals(x, 0)
        assert not unit(1).equals(-unit(1), 0)
        a = Octonion([1.0 + 1e-15, 0, 0, 0, 0, 0, 0, 0])
        b = Octonion.one().as_float()
        assert a.equals(b, 1e-12)

    def test_equals_never_passes_on_nan_or_inf(self):
        nan, inf = float("nan"), float("inf")
        zero = Octonion.zero("float")
        for k in range(8):
            for bad in (nan, inf, -inf):
                v = Octonion([bad if i == k else 0.0 for i in range(8)])
                assert not v.equals(zero, 1e-12)
                assert not zero.equals(v, 1e-12)
                assert not v.equals(v, 1e-12)
        # the identity suite's magnitude-scaled comparisons
        finite = Octonion([5.0] + [0.0] * 7)
        assert not checks._eq(Octonion([inf] + [0.0] * 7), finite, 1e-12)
        assert not checks._eq(Octonion([5.0, nan] + [0.0] * 6), finite, 1e-12)
        assert not checks._scalar_eq(inf, 5.0, 1e-12)
        assert not checks._scalar_eq(inf, inf, 1e-12)
        assert not checks._scalar_eq(nan, 5.0, 1e-12)


class TestAlgebraLaws:
    @given(octonions, octonions)
    def test_conjugate_antiautomorphism(self, x, y):
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()

    @given(octonions)
    def test_conjugate_involution(self, x):
        assert x.conjugate().conjugate() == x

    @given(octonions, octonions)
    def test_norm_multiplicativity(self, x, y):
        assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()

    @given(octonions)
    def test_norm_nonnegative(self, x):
        n2 = x.norm_sq()
        assert n2 >= 0
        assert (n2 == 0) == (not x)

    @given(nonzero_octonions)
    def test_two_sided_inverse(self, x):
        one = Octonion.one()
        assert x * x.inverse() == one
        assert x.inverse() * x == one

    @given(octonions, octonions)
    def test_alternative_laws(self, x, y):
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)

    @given(octonions, octonions, octonions)
    def test_moufang(self, x, y, z):
        assert ((x * y) * x) * z == x * (y * (x * z))

    @given(octonions, octonions)
    def test_norm_is_product_with_conjugate(self, x, y):
        assert x * x.conjugate() == Octonion.from_real(x.norm_sq())


class TestScalarFieldAxioms:
    @given(coefficients, coefficients, coefficients)
    def test_exact_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a:
            assert a * (1 / a) == 1

    @given(coefficients)
    def test_normalization(self, a):
        assert a.denominator > 0
        from math import gcd

        assert gcd(abs(a.numerator), a.denominator) == 1


class TestConstructionAndBackends:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="exactly 8"):
            Octonion([1, 2, 3])

    def test_immutable(self):
        x = Octonion.one()
        with pytest.raises(AttributeError):
            x.c = (Fraction(2),) * 8

    def test_backend_inference(self):
        assert Octonion([1] * 8).backend == "exact"
        assert Octonion([Fraction(1, 2)] * 8).backend == "exact"
        assert Octonion([1.0] + [0] * 7).backend == "float"

    def test_backend_mixing_rejected(self):
        exact = Octonion.one()
        floaty = Octonion.one().as_float()
        with pytest.raises(BackendMismatchError):
            exact * floaty
        with pytest.raises(BackendMismatchError):
            exact + floaty
        assert exact != floaty

    def test_scalar_multiplication(self):
        x = Octonion.parse("1 + e2")
        assert 2 * x == Octonion.parse("2 + 2e2")
        assert x * Fraction(1, 2) == Octonion.parse("1/2 + 1/2e2")
        with pytest.raises(BackendMismatchError):
            x * 0.5

    def test_tolerance_validation(self):
        x = Octonion.one()
        with pytest.raises(InvalidToleranceError):
            x.equals(x, -1)
        with pytest.raises(InvalidToleranceError):
            x.equals(x, Fraction(1, 10))
        y = x.as_float()
        for bad in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(InvalidToleranceError):
                y.equals(y, bad)

    def test_float_backend_products(self):
        x = unit(1).as_float()
        y = unit(2).as_float()
        assert (x * y).equals(unit(3).as_float(), 0.0)

    def test_hashable(self):
        assert len({Octonion.one(), Octonion.one(), unit(1)}) == 2


class TestExactRepresentation:
    """Exact values are 8 ints over one reduced denominator; every operation
    must agree with componentwise Fraction arithmetic on ``.c``."""

    @given(octonions, octonions)
    def test_add_and_sub_match_fractions(self, x, y):
        assert (x + y).c == tuple(a + b for a, b in zip(x.c, y.c))
        assert (x - y).c == tuple(a - b for a, b in zip(x.c, y.c))

    @given(octonions, coefficients | st.integers(-50, 50))
    def test_scalar_multiplication_matches_fractions(self, x, s):
        assert (x * s).c == tuple(a * s for a in x.c)
        assert (s * x).c == tuple(s * a for a in x.c)

    @given(nonzero_octonions)
    def test_inverse_and_norm_match_fractions(self, x):
        norm = sum(a * a for a in x.c)
        assert type(x.norm_sq()) is Fraction
        assert x.norm_sq() == norm
        conj = (x.c[0],) + tuple(-a for a in x.c[1:])
        assert x.inverse().c == tuple(a / norm for a in conj)

    @given(octonions, st.integers(1, 60))
    def test_unreduced_results_are_reduced(self, x, k):
        scaled = (x * k) * Fraction(1, k)
        assert scaled == x
        assert hash(scaled) == hash(x)
        assert all(gcd(a.numerator, a.denominator) == 1 for a in scaled.c)

    def test_sums_over_a_shared_factor_reduce(self):
        # 1/6 + 1/3 = 3/6 over the common denominator 6, stored as 1/2.
        built = Octonion([Fraction(1, 6)] * 8) + Octonion([Fraction(1, 3)] * 8)
        half = Octonion([Fraction(1, 2)] * 8)
        assert built == half
        assert hash(built) == hash(half)
        assert built.c == (Fraction(1, 2),) * 8
        assert len({built, half}) == 1
        assert built - half == Octonion.zero()
        assert (built - half).c == (Fraction(0),) * 8

    def test_inverse_of_a_long_product(self, rng):
        from octalg.sampling import random_octonion

        x = Octonion.one()
        for _ in range(6):
            x = x * random_octonion(rng, nonzero=True)
        assert x * x.inverse() == Octonion.one()
        assert x.inverse() * x == Octonion.one()
        assert x.inverse().inverse() == x

    @given(octonions, nonzero_octonions)
    def test_ratios_are_the_reduced_coefficients(self, x, y):
        for value in (x, x * y, x + y * Fraction(1, 7)):
            assert value.ratios() == tuple((a.numerator, a.denominator) for a in value.c)
        with pytest.raises(BackendMismatchError):
            x.as_float().ratios()

    def test_real_and_as_float_read_the_reduced_value(self):
        x = Octonion([Fraction(-3, 4), Fraction(1, 6)] + [0] * 6)
        assert x.real == Fraction(-3, 4)
        assert x.as_float().c == (-0.75, 1 / 6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert Octonion.zero().c == (Fraction(0),) * 8
