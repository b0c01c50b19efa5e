"""Core arithmetic: the derived multiplication table against a hand oracle,
and the algebra laws the rest of the package leans on."""

import copy
import inspect
import math
import pickle
import random
import re
import traceback
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from octalg import (
    BackendMismatchError,
    InvalidToleranceError,
    NonFiniteError,
    Octonion,
    ZeroInverseError,
    associator_matrix,
    cayley_dickson_product,
    checks,
    core,
    kernels,
    parse,
    structure_table,
)

from tests.strategies import (
    coefficients,
    float_edge_operands,
    nonzero_octonions,
    octonions,
    unit,
)

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

    def test_table_matches_recursive_doubling_on_basis_units(self):
        # The table is derived on signed basis units; the recursion on whole
        # coefficient tuples is an independent route through the same rule.
        index, sign = structure_table()
        basis = [tuple(int(m == k) for m in range(8)) for k in range(8)]
        for i in range(8):
            for j in range(8):
                expected = tuple(sign[i][j] * b for b in basis[index[i][j]])
                assert cayley_dickson_product(basis[i], basis[j]) == expected, f"e{i}*e{j}"

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


def _loop_product(a, b):
    """The product as a nested loop over `structure_table`, accumulating each
    term into its output coefficient in (i, j) order from a +0.0 start."""
    index, sign = structure_table()
    out = [0.0] * 8
    for i in range(8):
        for j in range(8):
            if sign[i][j] == 1:
                out[index[i][j]] += a[i] * b[j]
            else:
                out[index[i][j]] -= a[i] * b[j]
    return out


def _hex(values):
    """Bit patterns of floats: tells -0.0 from 0.0, and NaN equals NaN."""
    return [float.hex(float(v)) for v in values]


def _edge_pairs():
    values = float_edge_operands()
    return [(x, y) for x in values for y in values]


class TestGeneratedProduct:
    """The product is generated from the derived table; the nested loop it
    replaced, restated above, is the oracle for its terms and their order."""

    def test_scalar_product_matches_the_loop_bitwise(self):
        for x, y in _edge_pairs():
            assert _hex((x * y).c) == _hex(_loop_product(x.c, y.c)), (x, y)

    def test_kernel_product_matches_the_loop_bitwise(self):
        pairs = _edge_pairs()
        with np.errstate(all="ignore"):
            out = kernels.multiply(
                kernels.from_octonions([x for x, _ in pairs]),
                kernels.from_octonions([y for _, y in pairs]),
            )
            for row, (x, y) in zip(out, pairs):
                assert _hex(row) == _hex(_loop_product(x.c, y.c)), (x, y)

    def test_source_names_each_table_entry_once(self):
        source = inspect.getsource(core._product)
        assert source.startswith("def _product(a, b, z):\n")
        pairs = re.findall(r"a(\d)\*b(\d)", source)
        assert sorted(pairs) == [(str(i), str(j)) for i in range(8) for j in range(8)]

    def test_every_swap_of_adjacent_terms_is_caught(self):
        # Negative control: swapping terms p and p+1 of any output changes
        # some rounding on the edge operands.  Only the first two terms are
        # exempt: after the +0.0 start they commute exactly.
        pairs = _edge_pairs()
        expected = [_hex(_loop_product(x.c, y.c)) for x, y in pairs]
        for k in range(8):
            for p in range(1, 7):
                terms = list(core._product_terms())
                row = list(terms[k])
                row[p], row[p + 1] = row[p + 1], row[p]
                terms[k] = tuple(row)
                swapped = core._compile_product(terms, "<test swapped product>")
                assert any(
                    _hex(swapped(x.c, y.c, 0.0)) != want
                    for (x, y), want in zip(pairs, expected)
                ), (k, p)

    def test_traceback_shows_the_generated_line(self):
        with pytest.raises(TypeError) as info:
            core._product(None, None, 0)
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<octalg.core generated _product>", line 2, in _product' in text
        assert "a0, a1, a2, a3, a4, a5, a6, a7 = a" in text


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
        finite = Octonion([5.0] + [0.0] * 7)
        for k in range(8):
            for bad in (nan, inf, -inf):
                v = core._new([bad if i == k else 0.0 for i in range(8)], None)
                assert not v.equals(zero, 1e-12)
                assert not zero.equals(v, 1e-12)
                assert not v.equals(v, 1e-12)
                # the identity suite's magnitude-scaled comparisons, scaled
                # by the two sides and by given values, at any tolerance
                for tolerance in (0.0, 1e-12, 1e300):
                    assert not core._eq(v, finite, tolerance)
                    assert not core._eq(finite, v, tolerance)
                    assert not core._eq(v, v, tolerance)
                    assert not core._eq(finite, finite, tolerance, v)
                    assert not core._eq(finite, finite, tolerance, finite, v)
        # and its comparisons of norms
        for bad in (nan, inf, -inf):
            for tolerance in (0.0, 1e-12, 1e300):
                assert not core._eq(bad, 5.0, tolerance)
                assert not core._eq(5.0, bad, tolerance)
                assert not core._eq(bad, bad, tolerance)


def _before_deviation(a, b, tolerance, *scale_by):
    """The float closeness rule as the package stated it before
    `core._deviation`: the scaled tolerance first, then one comparison per
    coefficient; for two norms, one comparison of their difference."""
    if isinstance(a, float):
        diff = abs(a - b)
        return math.isfinite(diff) and diff <= tolerance * max(1.0, abs(a), abs(b))
    scale = 1.0
    for v in scale_by or (a, b):
        scale = max(scale, max(abs(c) for c in v.c))
    scaled = tolerance * scale
    return math.isfinite(scaled) and all(abs(x - y) <= scaled for x, y in zip(a.c, b.c))


class TestClosenessRule:
    """`core._eq` decides on one `core._deviation` what the two earlier float
    rules decided, also at the tolerance where the verdict turns."""

    @staticmethod
    def _pairs(rng):
        for _ in range(300):
            magnitude = 10.0 ** rng.randint(-3, 12)
            a = Octonion([rng.uniform(-magnitude, magnitude) for _ in range(8)])
            noise = [rng.choice((0.0, 1e-13)) * rng.uniform(-1, 1) * magnitude for _ in range(8)]
            b = Octonion([x + e for x, e in zip(a.c, noise)])
            scale_by = rng.choice([(), (a,), (a, a - b)])
            yield a, b, scale_by
            yield a.norm_sq(), (a * b).norm_sq() / b.norm_sq(), ()

    def test_same_verdict_either_side_of_the_turning_point(self):
        rng = random.Random("closeness-boundary")
        for a, b, scale_by in self._pairs(rng):
            absolute, scale = core._deviation(
                *((a._v, b._v) if isinstance(a, Octonion) else ((a,), (b,))),
                [c for v in scale_by for c in v._v] or None,
            )
            turn = absolute / scale
            tolerances = [turn]
            for direction in (0.0, math.inf):
                t = turn
                for _ in range(3):
                    t = math.nextafter(t, direction)
                    tolerances.append(t)
            verdicts = set()
            for tolerance in tolerances:
                verdict = core._eq(a, b, tolerance, *scale_by)
                assert verdict == _before_deviation(a, b, tolerance, *scale_by)
                verdicts.add(verdict)
            # Three ulps either side of the quotient straddle the turn.
            assert absolute == 0 or verdicts == {True, False}

    def test_differences_near_the_binary64_limit_keep_their_verdict(self):
        # Eight differences of 1.5e308 sum past the binary64 range; the rule
        # takes their largest, so the verdict stays the one before.
        a = core._new([1.5e308] * 8, None)
        b = core._new([0.0] * 8, None)
        assert core._deviation(a._v, b._v) == (1.5e308, 1.5e308)
        assert core._eq(a, b, 1.0) and _before_deviation(a, b, 1.0)
        below = math.nextafter(1.0, 0.0)
        assert not core._eq(a, b, below) and not _before_deviation(a, b, below)

    def test_a_non_finite_scale_fails(self):
        # tolerance * inf is inf (or NaN at tolerance 0), which every finite
        # deviation would pass: the rule fails it instead, as before.  A NaN
        # among the scale's coefficients used to be skipped by max(); it fails
        # now too.
        one = Octonion.one("float")
        for bad in (math.inf, -math.inf, math.nan):
            scale_by = core._new([1.0, bad] + [0.0] * 6, None)
            assert all(map(math.isnan, core._deviation(one._v, one._v, scale_by._v)))
            for tolerance in (0.0, 1e-12, 1.0):
                assert not core._eq(one, one, tolerance, scale_by)
                assert _before_deviation(one, one, tolerance, scale_by) == (bad != bad)

    def test_a_bound_beyond_binary64_passes_every_finite_deviation(self):
        # tolerance * scale overflowing to inf passes a finite deviation, as
        # the norm comparison always did; the octonion comparison used to fail
        # it.
        a = Octonion([1e10] + [0.0] * 7)
        b = Octonion([-1e10] + [0.0] * 7)
        assert core._eq(a, b, 1e300) and not _before_deviation(a, b, 1e300)
        assert core._eq(1e10, -1e10, 1e300) and _before_deviation(1e10, -1e10, 1e300)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_floats(self, bad):
        for k in range(8):
            with pytest.raises(NonFiniteError, match="finite"):
                Octonion([bad if i == k else 0.0 for i in range(8)])
        with pytest.raises(NonFiniteError):
            Octonion.from_real(bad)
        with pytest.raises(NonFiniteError):
            Octonion([bad] + [0] * 7)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_named_constructors_match_the_list_construction(self, backend):
        if backend == "float":
            z, o, reals = 0.0, 1.0, [2.5, -0.0, -1e-300]
        else:
            z, o, reals = 0, 1, [0, -3, True, Fraction(-7, 4), Fraction(6, 3)]
        cases = [(Octonion.zero(backend), [z] * 8), (Octonion.one(backend), [o] + [z] * 7)]
        cases += [
            (Octonion.unit(k, backend), [o if i == k else z for i in range(8)])
            for k in range(8)
        ]
        cases += [(Octonion.from_real(r), [r] + [z] * 7) for r in reals]
        for built, coefficients in cases:
            expected = Octonion(coefficients)
            assert (built._v, built._d) == (expected._v, expected._d)
            assert list(map(type, built._v)) == list(map(type, expected._v))
            assert [float(c).hex() for c in built.c] == [float(c).hex() for c in expected.c]

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

    def test_resolve_tolerance(self):
        # None is the backend's default; exact compares exactly, so only 0
        # passes there; float takes any finite tolerance >= 0 as it is.
        assert core.resolve_tolerance("exact") == 0
        assert core.resolve_tolerance("float") == core.DEFAULT_FLOAT_TOLERANCE == 1e-12
        for zero in (0, 0.0, Fraction(0)):
            assert core.resolve_tolerance("exact", zero) == 0
        for good in (0.0, 5e-324, 0.5, 1e300):
            assert core.resolve_tolerance("float", good) == good
        for bad in (1e-12, Fraction(1, 10), -1, float("nan"), float("inf")):
            with pytest.raises(InvalidToleranceError, match="float backend"):
                core.resolve_tolerance("exact", bad)
        for bad in (-1e-9, -math.inf, float("nan"), float("inf")):
            with pytest.raises(InvalidToleranceError, match="finite number >= 0"):
                core.resolve_tolerance("float", bad)

    @pytest.mark.parametrize("backend", ["Float", "EXACT", "", None])
    def test_resolve_tolerance_refuses_an_unknown_backend(self, backend):
        for tolerance in (None, 0, 1e-9):
            with pytest.raises(ValueError, match="backend must be 'exact' or 'float'"):
                core.resolve_tolerance(backend, tolerance)

    def test_float_backend_products(self):
        x = unit(1).as_float()
        y = unit(2).as_float()
        assert (x * y).equals(unit(3).as_float(), 0.0)

    def test_hashable(self):
        assert len({Octonion.one(), Octonion.one(), unit(1)}) == 2

    def test_copy_and_pickle(self):
        values = [Octonion.parse("1/2 - 3e4"), Octonion([0.1, -0.0, 1e-310] + [2.5] * 5)]
        values.append(parse("x*(1+e2)"))  # holds an exact literal
        for value in values:
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value
                if isinstance(value, Octonion):
                    assert (twin._d, _hex(twin._v)) == (value._d, _hex(value._v))
        m = associator_matrix([unit(1), unit(2), unit(4), Octonion.parse("1/3 + e5")])
        for twin in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert (twin.n, twin.products, twin.flat) == (m.n, m.products, m.flat)

    def test_every_record_init_takes_its_slots_in_order(self):
        # `core._from_key`, behind copy and pickle, rebuilds each record by
        # calling its ``__init__`` with its ``__slots__`` in order.
        from octalg import exprs, trees

        samples = {
            trees.Leaf: trees.Leaf(2),
            trees.Node: trees.Node(trees.Leaf(1), trees.Leaf(2)),
            trees.AssociatorMatrix: associator_matrix([unit(1), unit(2), Octonion.parse("1/3 + e5")]),
            exprs.Literal: exprs.Literal(Octonion.parse("1/2 - e3")),
            exprs.Var: exprs.Var("x"),
            exprs.Product: exprs.Product(exprs.Var("x"), exprs.Var("y")),
            exprs.Conj: exprs.Conj(exprs.Var("x")),
            exprs.Inv: exprs.Inv(exprs.Var("x")),
            exprs._Token: exprs._Token("NUMBER", 3, "1/2", Octonion.parse("1/2")),
            checks.CheckReport: checks.CheckReport("moufang", 5, 1, "x != y"),
        }
        records, todo = [], [core._Record]
        while todo:
            subclasses = todo.pop().__subclasses__()
            records += subclasses
            todo += subclasses
        assert set(records) == set(samples)
        for cls, value in samples.items():
            params = list(inspect.signature(cls.__init__).parameters)
            assert params[1:] == list(cls.__slots__), cls.__qualname__
            for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin is not value and type(twin) is cls
                # AssociatorMatrix compares by identity: compare its fields.
                assert twin._key() == value._key(), cls.__qualname__


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

    def test_inverse_builds_on_the_conjugate(self, monkeypatch):
        # One conjugation formula: a conjugate that forgets e7 also breaks
        # the exact inverse, so the inverse-of-product identity catches it.
        def forgets_e7(x):
            v = x._v
            return core._new([v[0]] + [-n for n in v[1:7]] + [v[7]], x._d)

        monkeypatch.setattr(Octonion, "conjugate", forgets_e7)
        (report,) = checks.run_checks(cases=3, seed=1, names=["inverse-of-product"])
        assert not report.ok

    @given(octonions)
    def test_conjugate_keeps_the_reduced_form(self, x):
        conj = x.conjugate()
        assert conj._d == x._d
        assert gcd(conj._d, *conj._v) == 1
        reduced = core._new([x._v[0]] + [-n for n in x._v[1:]], x._d)
        assert (conj._v, conj._d) == (reduced._v, reduced._d)

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
