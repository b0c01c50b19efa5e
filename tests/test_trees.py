"""Tree enumeration, evaluation, and the order-conversion matrix."""

import copy
import functools
import math
import operator
import pickle
import random
import re
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from octalg import (
    AssociatorMatrix,
    InvalidToleranceError,
    Leaf,
    Node,
    NonFiniteError,
    Octonion,
    OutOfRangeError,
    ShapeMismatchError,
    ZeroInverseError,
    associator_matrix,
    enumerate_trees,
    evaluate,
    generalized_associator,
    left_comb,
    multiplicative_associator,
    right_comb,
    tree_products,
)
from octalg import checks, core, table
from octalg.brackets import expand_word
from octalg.sampling import random_octonion, random_scalar
from octalg.core import DEFAULT_FLOAT_TOLERANCE
from octalg.checks import CheckReport
from octalg.textform import format_coefficients, format_scalar, parse_octonion
from octalg.trees import (
    CATALAN,
    _distinct_products,
    _machine_blocks,
    format_matrix_machine,
    format_matrix_text,
    leaf_positions,
    render_tree,
    verify_matrix,
)

from tests.strategies import compile_product, nonzero_octonions, perturbed, unit

ONE = Octonion.one()


class TestEnumeration:
    def test_single_factor(self):
        assert enumerate_trees(1) == [Leaf(1)]

    def test_three_factors(self):
        assert enumerate_trees(3) == [
            Node(Leaf(1), Node(Leaf(2), Leaf(3))),
            Node(Node(Leaf(1), Leaf(2)), Leaf(3)),
        ]

    def test_counts_match_catalan(self):
        expected = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862)
        for n in range(1, 11):
            assert len(enumerate_trees(n)) == expected[n - 1] == CATALAN[n - 1]

    def test_four_factor_orders_as_a_set(self):
        # The five parenthesizations of w*x*y*z, built explicitly.
        w, x, y, z = Leaf(1), Leaf(2), Leaf(3), Leaf(4)
        expected = {
            Node(Node(Node(w, x), y), z),   # ((wx)y)z
            Node(Node(w, x), Node(y, z)),   # (wx)(yz)
            Node(w, Node(x, Node(y, z))),   # w(x(yz))
            Node(Node(w, Node(x, y)), z),   # (w(xy))z
            Node(w, Node(Node(x, y), z)),   # w((xy)z)
        }
        assert set(enumerate_trees(4)) == expected

    def test_leaf_order_invariant(self):
        from octalg.trees import leaf_positions

        for n in (1, 2, 3, 4, 5, 6):
            for tree in enumerate_trees(n):
                assert leaf_positions(tree) == list(range(1, n + 1))

    def test_bounds(self):
        with pytest.raises(OutOfRangeError):
            enumerate_trees(0)
        with pytest.raises(OutOfRangeError):
            enumerate_trees(13)

    def test_trees_are_values(self):
        assert Node(Leaf(1), Leaf(2)) == Node(Leaf(1), Leaf(2))
        assert len(set(enumerate_trees(5))) == 14

    def test_equality_is_by_exact_type_and_fields(self):
        assert Leaf(1) != (1,)
        assert Leaf(1) != Leaf(2)
        assert hash(Leaf(1)) == hash(Leaf(1))
        assert Node(Leaf(1), Leaf(2)) != Node(Leaf(2), Leaf(1))

    def test_repr(self):
        assert repr(Node(Leaf(1), Leaf(2))) == (
            "Node(left=Leaf(position=1), right=Leaf(position=2))"
        )

    def test_nodes_refuse_assignment(self):
        tree = Node(Leaf(1), Leaf(2))
        for node, name in ((tree, "left"), (tree, "right"), (tree.left, "position")):
            with pytest.raises(AttributeError):
                setattr(node, name, Leaf(3))
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            tree.extra = 1
        assert tree == Node(Leaf(1), Leaf(2))

    def test_copy_and_pickle_keep_the_tree(self):
        tree = enumerate_trees(4)[3]
        assert copy.deepcopy(tree) == tree
        assert pickle.loads(pickle.dumps(tree)) == tree

    def test_a_record_equals_itself_without_building_keys(self, monkeypatch):
        def no_key(record):
            raise AssertionError(f"_key of {record!r}")

        monkeypatch.setattr(core._Record, "_key", no_key)
        for record in (enumerate_trees(8)[200], CheckReport("moufang", 3, 1)):
            assert record == record and not record != record

    def test_combs(self):
        assert left_comb(3) == Node(Node(Leaf(1), Leaf(2)), Leaf(3))
        assert right_comb(3) == Node(Leaf(1), Node(Leaf(2), Leaf(3)))

    def test_render(self):
        assert render_tree(left_comb(4)) == "((x1*x2)*x3)*x4"

    def test_a_value_that_is_not_a_tree_is_a_type_error(self):
        for bad in (42, Node(Leaf(1), 42)):
            with pytest.raises(TypeError, match="42"):
                render_tree(bad)
            with pytest.raises(TypeError, match="42"):
                evaluate(bad, [ONE, ONE])


DEEP = 2000


class TestCombs2000Deep:
    """Equality, hashing, repr and rendering walk the tree, so they do not
    recurse once per level."""

    @pytest.mark.parametrize("comb", [left_comb, right_comb])
    def test_compare_and_hash(self, comb):
        tree, twin = comb(DEEP), comb(DEEP)
        assert tree == twin and not tree != twin
        assert hash(tree) == hash(twin)
        assert tree != comb(DEEP - 1)

    def test_a_difference_in_shape_or_at_the_deepest_leaf_counts(self):
        assert left_comb(DEEP) != right_comb(DEEP)
        tree = Leaf(0)
        for k in range(2, DEEP + 1):
            tree = Node(tree, Leaf(k))
        assert tree != left_comb(DEEP)

    @pytest.mark.parametrize("comb", [left_comb, right_comb])
    def test_copy_and_pickle(self, comb):
        tree = comb(DEEP)
        assert copy.deepcopy(tree) == tree
        assert pickle.loads(pickle.dumps(tree)) == tree

    def test_repr(self):
        leaves = "".join(f", right=Leaf(position={k}))" for k in range(2, DEEP + 1))
        assert repr(left_comb(DEEP)) == "Node(left=" * (DEEP - 1) + "Leaf(position=1)" + leaves
        lefts = "".join(f"Node(left=Leaf(position={k}), right=" for k in range(1, DEEP))
        assert repr(right_comb(DEEP)) == lefts + f"Leaf(position={DEEP})" + ")" * (DEEP - 1)

    def test_render(self):
        rights = "".join(f"*x{k})" for k in range(2, DEEP))
        assert render_tree(left_comb(DEEP)) == "(" * (DEEP - 2) + "x1" + rights + f"*x{DEEP}"
        lefts = "".join(f"x{k}*(" for k in range(1, DEEP - 1))
        assert render_tree(right_comb(DEEP)) == lefts + f"x{DEEP - 1}*x{DEEP}" + ")" * (DEEP - 2)


class TestEvaluate:
    def test_single_leaf(self):
        x = Octonion.parse("2 + e4")
        assert evaluate(Leaf(1), [x]) == x

    def test_comb_orders_differ(self):
        factors = [unit(1), unit(2), unit(4)]
        assert evaluate(left_comb(3), factors) == unit(7)
        assert evaluate(right_comb(3), factors) == -unit(7)

    def test_identity_factors(self):
        for tree in enumerate_trees(4):
            assert evaluate(tree, [ONE] * 4) == ONE

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            evaluate(left_comb(3), [ONE, ONE])
        with pytest.raises(ShapeMismatchError):
            evaluate(Node(Leaf(2), Leaf(1)), [ONE, ONE])

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_combs_2000_deep(self, rng, backend):
        # Signed basis units keep exact values small, and near-unit factors
        # keep float products in range.  Each comb multiplies the same
        # operands in the same order as the fold, so floats agree bit for bit.
        factors = []
        for _ in range(2000):
            if backend == "exact":
                factors.append(rng.choice((1, -1)) * unit(rng.randrange(8)))
            else:
                x = random_octonion(rng, backend, nonzero=True)
                factors.append(x * (1 / math.sqrt(x.norm_sq())))
        positions = list(range(1, 2001))
        assert leaf_positions(left_comb(2000)) == positions
        assert leaf_positions(right_comb(2000)) == positions
        left = functools.reduce(operator.mul, factors)
        right = functools.reduce(lambda acc, f: f * acc, reversed(factors))
        got = [evaluate(left_comb(2000), factors), evaluate(right_comb(2000), factors)]
        assert got == [left, right]
        if backend == "float":
            assert _hexes(got) == _hexes([left, right])


# A two-generator word with scalar letters, conjugates and inverses; its
# first n letters are the n-factor word.
WORD = ["x", Fraction(-3, 2), "y~", "x^-1", "y", "x~", 2, "y^-1"]


def _quaternion(rng, backend):
    """A nonzero value in the span of 1, e1, e2, e3: an associative subalgebra."""
    while True:
        q = Octonion([random_scalar(rng) for _ in range(4)] + [0] * 4)
        if q:
            return q.as_float() if backend == "float" else q


def _factor_sets(rng, backend, n):
    """Named factor lists with many, some and no equal sub-span products."""
    x, y = (random_octonion(rng, backend, nonzero=True) for _ in range(2))
    return {
        "word": expand_word(WORD[:n], x, y),
        "repeated": [x] * n,
        "quaternion": [_quaternion(rng, backend) for _ in range(n)],
        "generic": [random_octonion(rng, backend, nonzero=True) for _ in range(n)],
    }


def _per_tree(factors):
    return [evaluate(t, factors) for t in enumerate_trees(len(factors))]


def _per_tree_values(factors):
    """A stand-in for `_distinct_products` that lists one product per tree."""
    return _per_tree(factors)


def _hexes(products):
    return [[v.hex() for v in p.c] for p in products]


class TestTreeProducts:
    """`tree_products` multiplies each distinct pair of sub-span values once."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_tree_evaluation(self, rng, n):
        for name, factors in _factor_sets(rng, "exact", n).items():
            assert tree_products(factors) == _per_tree(factors), name

    @pytest.mark.parametrize("n", range(1, 9))
    def test_float_matches_per_tree_evaluation_bitwise(self, rng, n):
        sets = _factor_sets(rng, "float", n)
        # Factors holding -0.0, alone and repeated: equal to +0.0 but not
        # the same bits.
        z = Octonion([-0.0, 1.5, -0.0, 0.0, -2.0, -0.0, 0.25, -0.0])
        minus_e3 = Octonion.unit(3, "float") * -1.0
        sets["negative zeros"] = ([z, minus_e3] * n)[:n]
        sets["repeated negative zeros"] = [z] * n
        for name, factors in sets.items():
            assert _hexes(tree_products(factors)) == _hexes(_per_tree(factors)), name

    def test_bounds(self):
        with pytest.raises(OutOfRangeError):
            tree_products([])
        with pytest.raises(OutOfRangeError):
            tree_products([ONE] * 13)

    def test_two_generator_word_collapses_every_span(self, rng, count_products):
        x, y = (random_octonion(rng, nonzero=True) for _ in range(2))
        factors = expand_word(WORD, x, y)
        count_products.clear()
        products = tree_products(factors)
        # One value per span, one multiply per split: sum (8-w)*w = 84.
        assert len(count_products) == sum((8 - w) * w for w in range(1, 8)) == 84
        assert len(products) == 429
        assert all(p is products[0] for p in products)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generic_factors_cost_one_multiply_per_tree(self, rng, count_products, n):
        factors = [random_octonion(rng, nonzero=True) for _ in range(n)]
        count_products.clear()
        tree_products(factors)
        # The per-tree DP: each span of w+1 factors builds its CATALAN[w] trees.
        assert len(count_products) == sum((n - w) * CATALAN[w] for w in range(1, n))

    def test_biassociativity_check_keeps_its_teeth(self, monkeypatch):
        # A product with one sign flipped is not alternative, so Artin's
        # theorem fails: sharing equal products must not hide that.  The
        # check fails on exactly the cases that per-tree evaluation fails
        # on, 196 of these 300.
        terms = [list(row) for row in table._product_terms()]
        sign, i, j = terms[3][5]
        terms[3][5] = (-sign, i, j)
        monkeypatch.setattr(
            core, "_product", compile_product(terms, "<test flipped product>")
        )

        def failures():
            return sum(
                checks._check_biassociativity(random.Random(f"{k}:bi"), "exact", 0)
                is not None
                for k in range(300)
            )

        shared = failures()
        monkeypatch.setattr(checks, "_distinct_products", _per_tree_values)
        assert shared == failures() == 196

    def test_two_generator_word_folds_to_one_value(self, rng, count_products):
        x, y = (random_octonion(rng, nonzero=True) for _ in range(2))
        factors = expand_word(WORD, x, y)
        count_products.clear()
        values = _distinct_products(factors)
        assert len(values) == 1
        assert len(count_products) == 84
        assert values == tree_products(factors)[:1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_distinct_values_in_first_reached_order(self, rng, n):
        for name, factors in _factor_sets(rng, "float", n).items():
            values = _distinct_products(factors)
            products = tree_products(factors)
            first_reached = list({id(p): p for p in products}.values())
            assert values == first_reached, name

    def test_exact_biassociativity_makes_no_comparison(self, monkeypatch):
        calls = []
        eq = checks._eq

        def counting(*args):
            calls.append(None)
            return eq(*args)

        monkeypatch.setattr(checks, "_eq", counting)

        def verdicts():
            return [
                checks._check_biassociativity(random.Random(f"{k}:bi"), "exact", 0)
                for k in range(50)
            ]

        assert verdicts() == [None] * 50
        assert calls == []
        # The counter sees the per-tree comparisons the fold does without.
        monkeypatch.setattr(checks, "_distinct_products", _per_tree_values)
        assert verdicts() == [None] * 50
        assert len(calls) > 0

    @pytest.mark.parametrize("tolerance", [1e-12, 0.0])
    def test_float_verdicts_match_per_tree_comparison(self, monkeypatch, tolerance):
        def verdicts():
            return [
                checks._check_biassociativity(random.Random(f"{k}:bi"), "float", tolerance)
                for k in range(300)
            ]

        folded = verdicts()
        monkeypatch.setattr(checks, "_distinct_products", _per_tree_values)
        assert folded == verdicts()

    def test_float_biassociativity_fails_on_a_shared_value_that_is_not_finite(
        self, monkeypatch
    ):
        # Both orders of a 3-letter word share one value holding inf: per-tree
        # comparison fails it, since inf - inf is NaN, and so must the check
        # on the one distinct value.
        inf = core._new([math.inf] + [0.0] * 7, None)
        monkeypatch.setattr(checks, "expand_word", lambda word, x, y: [ONE.as_float()] * 3)
        for values in ([inf], [inf, inf]):
            monkeypatch.setattr(checks, "_distinct_products", lambda f, values=values: values)
            assert checks._check_biassociativity(random.Random("bi"), "float", 1e-12)


class TestGeneralizedAssociator:
    def test_same_tree_gives_identity(self, rng):
        factors = [random_octonion(rng, nonzero=True) for _ in range(4)]
        for i in range(5):
            assert generalized_associator(i, i, factors) == ONE

    @given(nonzero_octonions, nonzero_octonions, nonzero_octonions)
    def test_three_factors_reduce_to_multiplicative_associator(self, x, y, z):
        trees = enumerate_trees(3)
        left = trees.index(left_comb(3))
        right = trees.index(right_comb(3))
        assert generalized_associator(left, right, [x, y, z]) == (
            multiplicative_associator(x, y, z)
        )

    def test_conversion_contract(self, rng):
        factors = [random_octonion(rng, nonzero=True) for _ in range(4)]
        trees = enumerate_trees(4)
        for i in range(5):
            for j in range(5):
                a = generalized_associator(i, j, factors)
                assert evaluate(trees[i], factors) * a == evaluate(trees[j], factors)

    def test_conjugate_symmetry_on_basis_factors(self):
        factors = [unit(1), unit(2), unit(4), unit(3)]
        for i in range(5):
            for j in range(5):
                a_ij = generalized_associator(i, j, factors)
                a_ji = generalized_associator(j, i, factors)
                assert a_ji == a_ij.conjugate()

    def test_index_errors(self):
        factors = [ONE, ONE, ONE]
        with pytest.raises(IndexError):
            generalized_associator(0, 2, factors)
        with pytest.raises(IndexError):
            generalized_associator(-1, 0, factors)

    def test_zero_factor(self):
        with pytest.raises(ZeroInverseError, match="factor 2"):
            generalized_associator(0, 1, [ONE, Octonion.zero(), ONE])


class TestAssociatorMatrix:
    def test_equality_is_identity_and_fields_are_frozen(self):
        m = associator_matrix([unit(1), unit(2), unit(4)])
        twin = AssociatorMatrix(n=m.n, products=m.products, flat=m.flat)
        assert m == m
        assert m != twin
        assert len({m, twin}) == 2
        with pytest.raises(AttributeError):
            m.n = 4
        assert repr(m).startswith(
            "AssociatorMatrix(n=3, products=(Octonion('-e7', backend='exact'), "
            "Octonion('e7', backend='exact')), flat=[Octonion('1', backend='exact')"
        )

    def test_real_factors(self):
        m = associator_matrix([Octonion.from_real(2), Octonion.from_real(3), ONE, ONE])
        assert all(m.entry(i, j) == ONE for i in range(5) for j in range(5))

    def test_quaternion_triple(self):
        m = associator_matrix([unit(1), unit(2), unit(3)])
        assert m.size == 2
        assert all(m.entry(i, j) == ONE for i in range(2) for j in range(2))

    def test_nonassociating_triple(self):
        m = associator_matrix([unit(1), unit(2), unit(4)])
        assert [[m.entry(i, j) for j in range(2)] for i in range(2)] == [
            [ONE, -ONE],
            [-ONE, ONE],
        ]

    def test_quaternion_subalgebra_factors(self, rng):
        # Factors drawn from the span of {1, e1, e2, e3} associate fully.
        def quaternion(rng):
            from octalg.sampling import random_scalar

            coeffs = [random_scalar(rng) for _ in range(4)] + [0] * 4
            return Octonion(coeffs)

        while True:
            factors = [quaternion(rng) for _ in range(4)]
            if all(factors):
                break
        m = associator_matrix(factors)
        assert all(m.entry(i, j) == ONE for i in range(5) for j in range(5))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_invariants_on_random_factors(self, n):
        for seed in range(5):
            gen = random.Random(f"matrix-{n}-{seed}")
            factors = [random_octonion(gen, nonzero=True) for _ in range(n)]
            m = associator_matrix(factors)
            for i in range(m.size):
                assert m.entry(i, i) == ONE
                for j in range(m.size):
                    assert m.entry(j, i) == m.entry(i, j).conjugate()
                    assert m.entry(i, j).norm_sq() == 1

    def test_matches_definition(self, rng):
        factors = [random_octonion(rng, nonzero=True) for _ in range(4)]
        m = associator_matrix(factors)
        for i in range(5):
            for j in range(5):
                assert m.entry(i, j) == generalized_associator(i, j, factors)

    def test_chain_identity_report(self, rng, capsys):
        # Whether entry(i,j)*entry(j,k) == entry(i,k) is deliberately not
        # asserted: non-associativity gives no right to expect it.  This
        # records the observation on a small sample.
        factors = [random_octonion(rng, nonzero=True) for _ in range(4)]
        m = associator_matrix(factors)
        holds = sum(
            m.entry(i, j) * m.entry(j, k) == m.entry(i, k)
            for i in range(5)
            for j in range(5)
            for k in range(5)
        )
        print(f"chain identity held for {holds}/125 index triples (not asserted)")

    def test_bounds_and_zero_factors(self):
        with pytest.raises(OutOfRangeError):
            associator_matrix([ONE] * 9)
        with pytest.raises(ZeroInverseError):
            associator_matrix([ONE, Octonion.zero()])

    @pytest.mark.parametrize(
        "factor, message",
        [
            (1e200, "the product under order 1 is beyond the binary64 range"),
            (1e-200, "the product under order 1 underflows binary64 to 0"),
            (1e100, "the squared norm of the product under order 1 is beyond the binary64 range"),
        ],
        ids=["overflow", "underflow", "norm-overflow"],
    )
    def test_float_products_beyond_binary64_are_refused(self, factor, message):
        # Every factor is nonzero and finite; their products, or the squared
        # norms the inverses divide by, are not.
        x = Octonion.from_real(factor).as_float()
        with pytest.raises(NonFiniteError, match=f"^{message}$"):
            associator_matrix([x, x, Octonion.unit(4, "float")])

    def test_float_matrix_matches_scalar_products(self, rng):
        factors = [random_octonion(rng, backend="float", nonzero=True) for _ in range(4)]
        m = associator_matrix(factors)
        trees = enumerate_trees(4)
        products = [evaluate(t, factors) for t in trees]
        for i in range(5):
            inv = products[i].inverse()
            for j in range(5):
                expected = inv * products[j]
                assert m.entry(i, j) == expected  # bitwise, by design

    def test_float_matrix_is_one_kernel_call(self, monkeypatch):
        # The benchmark's tracer rebinds kernels.multiply and reads its calls
        # and rows per request: one call returning all T^2 = 132^2 entries.
        from octalg import kernels

        results = []
        multiply = kernels.multiply

        def counting(a, b):
            results.append(multiply(a, b))
            return results[-1]

        monkeypatch.setattr(kernels, "multiply", counting)
        gen = random.Random("kernel-calls-7")
        m = associator_matrix(
            [random_octonion(gen, backend="float", nonzero=True) for _ in range(7)]
        )
        assert [len(r) for r in results] == [17_424]
        assert m.flat is results[0]

    def test_float_matrix_tracks_exact(self, rng):
        exact_factors = [random_octonion(rng, nonzero=True) for _ in range(4)]
        float_factors = [f.as_float() for f in exact_factors]
        exact_m = associator_matrix(exact_factors)
        float_m = associator_matrix(float_factors)
        for i in range(5):
            for j in range(5):
                assert float_m.entry(i, j).equals(
                    exact_m.entry(i, j).as_float(), 1e-12
                )


def _float_matrix(n, seed):
    gen = random.Random(f"float-matrix-{n}-{seed}")
    return associator_matrix(
        [random_octonion(gen, backend="float", nonzero=True) for _ in range(n)]
    )


def _per_entry_verdicts(m, tolerance):
    """The per-entry comparison the array verification replaces."""
    one = Octonion.one("float")
    diagonal_ok = all(m.entry(i, i).equals(one, tolerance) for i in range(m.size))
    symmetry_ok = all(
        m.entry(j, i).equals(m.entry(i, j).conjugate(), tolerance)
        for i in range(m.size)
        for j in range(m.size)
    )
    return diagonal_ok, symmetry_ok


def _span_product(tree, factors):
    """The product of ``factors`` under ``tree``, whose leaves may be any
    run of consecutive positions: the sub-span product a subtree gives."""
    if isinstance(tree, Leaf):
        return factors[tree.position - 1]
    return _span_product(tree.left, factors) * _span_product(tree.right, factors)


class TestRotationOracle:
    """Trees related by a rotation at the root, (A*B)*C and A*(B*C), differ
    by the paper's three-factor associator of the sub-span products A, B, C,
    since ((AB)C)^-1 = C^-1(B^-1 A^-1) in any composition algebra.  This ties
    each such matrix entry to `multiplicative_associator`, computed apart
    from the matrix."""

    @pytest.mark.parametrize("n", range(3, 8))
    def test_rotation_entries_are_the_three_factor_associator(self, n):
        rng = random.Random(f"rotation-oracle-{n}")
        factors = [random_octonion(rng, nonzero=True) for _ in range(n)]
        trees = enumerate_trees(n)
        m = associator_matrix(factors)
        pairs = 0
        for i, tree in enumerate(trees):
            if isinstance(tree.left, Leaf):
                continue
            a, b, c = tree.left.left, tree.left.right, tree.right
            j = trees.index(Node(a, Node(b, c)))
            spans = (_span_product(t, factors) for t in (a, b, c))
            assert m.entry(i, j) == multiplicative_associator(*spans)
            pairs += 1
        # Every tree whose left subtree is not a leaf rotates at the root.
        assert pairs == CATALAN[n - 1] - CATALAN[n - 2]


class TestMatrixStorage:
    def test_float_entries_are_one_read_only_array(self):
        m = _float_matrix(4, 0)
        assert m.flat.shape == (25, 8)
        assert not m.flat.flags.writeable
        assert m.entry(2, 3).c == tuple(m.flat[2 * 5 + 3].tolist())
        assert all(type(v) is float for v in m.entry(2, 3).c)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_entry_indices_checked(self, backend):
        m = associator_matrix([Octonion.unit(k, backend) for k in (1, 2, 4)])
        for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1)):
            with pytest.raises(IndexError):
                m.entry(i, j)


class TestMatrixVerification:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_array_verdicts_match_per_entry_equals(self, n):
        m = _float_matrix(n, 1)
        # Tolerances on both sides of the worst deviation, where the verdicts
        # turn: only the same float operations give the same answers there.
        worst = max(
            max(abs(a - b) for a, b in zip(m.entry(j, i).c, m.entry(i, j).conjugate().c))
            for i in range(m.size)
            for j in range(m.size)
        )
        worst_diagonal = max(
            max(abs(a - b) for a, b in zip(m.entry(i, i).c, Octonion.one("float").c))
            for i in range(m.size)
        )
        tolerances = {0.0, DEFAULT_FLOAT_TOLERANCE, worst, worst_diagonal}
        tolerances |= {math.nextafter(t, 0.0) for t in (worst, worst_diagonal)}
        seen = set()
        for tolerance in sorted(tolerances):
            verdicts = verify_matrix(m, tolerance)
            assert verdicts == _per_entry_verdicts(m, tolerance)
            seen.add(verdicts)
        assert {d for d, _ in seen} == {s for _, s in seen} == {True, False}
        assert verify_matrix(m, DEFAULT_FLOAT_TOLERANCE) == (True, True)

    def test_exact_verdicts(self):
        m = associator_matrix([unit(1), unit(2), unit(4), unit(7)])
        assert verify_matrix(m) == (True, True)

    @pytest.mark.parametrize(
        "i, j, delta, verdicts",
        [
            (2, 2, "1/1000000", (False, True)),
            (1, 3, "1/1000000e6", (True, False)),
            (3, 1, "1/1000000e6", (True, False)),
            (2, 2, "1/1000000e6", (False, False)),
        ],
        ids=["diagonal", "off-diagonal", "lower-triangle", "diagonal-not-real"],
    )
    def test_exact_negative_controls(self, i, j, delta, verdicts):
        # A real part added to a diagonal entry keeps it self-conjugate; an
        # imaginary one does not.  Symmetry compares each pair once, so an
        # entry below the diagonal must be caught as one above it is.
        m = associator_matrix([unit(1), unit(2), unit(4), Octonion.parse("1/3 + e5")])
        flat = list(m.flat)
        flat[i * m.size + j] += Octonion.parse(delta)
        bad = AssociatorMatrix(n=m.n, products=m.products, flat=flat)
        assert verify_matrix(bad) == verdicts

    def test_default_tolerance_is_the_backends(self):
        # Float roundoff fails both verdicts at 0, which the default is not.
        m = _float_matrix(4, 0)
        assert verify_matrix(m, 0.0) == (False, False)
        assert verify_matrix(m) == verify_matrix(m, DEFAULT_FLOAT_TOLERANCE) == (True, True)
        exact = associator_matrix([unit(1), unit(2), unit(4), unit(7)])
        assert verify_matrix(exact) == verify_matrix(exact, 0) == (True, True)
        with pytest.raises(InvalidToleranceError, match="float backend"):
            verify_matrix(exact, DEFAULT_FLOAT_TOLERANCE)
        for bad in (-1e-9, math.nan, math.inf):
            with pytest.raises(InvalidToleranceError, match="finite"):
                verify_matrix(m, bad)

    @pytest.mark.parametrize("backend", ["Float", "Exact"])
    def test_an_unknown_backend_is_refused(self, backend):
        # Only a product's `backend` is read to pick the tolerance; an
        # Octonion always names a known one, so a stand-in names another.
        m = _float_matrix(3, 0)
        products = tuple(types.SimpleNamespace(backend=backend) for _ in m.products)
        bad = AssociatorMatrix(n=m.n, products=products, flat=m.flat)
        for tolerance in (None, DEFAULT_FLOAT_TOLERANCE):
            with pytest.raises(ValueError, match="backend must be 'exact' or 'float', got"):
                verify_matrix(bad, tolerance)

    @pytest.mark.parametrize(
        "i, j, k, delta, verdicts",
        [
            (3, 3, 0, 10 * DEFAULT_FLOAT_TOLERANCE, (False, True)),
            (3, 11, 5, 10 * DEFAULT_FLOAT_TOLERANCE, (True, False)),
            (3, 3, 0, math.nan, (False, False)),
            (11, 3, 2, math.nan, (True, False)),
        ],
        ids=["diagonal", "off-diagonal", "nan-diagonal", "nan-off-diagonal"],
    )
    def test_negative_controls(self, i, j, k, delta, verdicts):
        m = _float_matrix(5, 2)
        bad = perturbed(m, i, j, k, delta)
        assert verify_matrix(bad, DEFAULT_FLOAT_TOLERANCE) == verdicts
        assert _per_entry_verdicts(bad, DEFAULT_FLOAT_TOLERANCE) == verdicts


class TestRendering:
    def test_float_machine_lines_match_per_entry_rendering(self):
        m = _float_matrix(5, 3)
        lines = format_matrix_machine(m).split("\n")
        assert lines == [
            f"{i + 1}\t{j + 1}\t{format_coefficients(m.entry(i, j))}"
            for i in range(m.size)
            for j in range(m.size)
        ]

    # Any finite float, and the values whose repr is scientific or at an
    # edge of binary64: subnormals, +-1e308, -0.0, >= 1e16 and < 1e-4.
    @given(
        st.sampled_from([1, 3, 4]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False)
                    | st.sampled_from([5e-324, -2.5e-310, 1e308, -1e308, -0.0, 1e16, 1.5e-5]),
                    min_size=CATALAN[n - 1] ** 2 * 8,
                    max_size=CATALAN[n - 1] ** 2 * 8,
                ),
            )
        )
    )
    def test_float_row_blocks_match_per_entry_rendering(self, n_and_values):
        n, values = n_and_values
        size = CATALAN[n - 1]
        flat = np.array(values).reshape(size * size, 8)
        products = tuple(tree_products([Octonion.one("float")] * n))
        m = AssociatorMatrix(n=n, products=products, flat=flat)
        assert list(_machine_blocks(m)) == [
            "\n".join(
                f"{i + 1}\t{j + 1}\t{','.join(map(format_scalar, flat[i * size + j].tolist()))}"
                for j in range(size)
            )
            for i in range(size)
        ]

    def test_machine_lines(self):
        m = associator_matrix([unit(1), unit(2), unit(4)])
        lines = format_matrix_machine(m).splitlines()
        assert lines[0] == "1\t1\t1,0,0,0,0,0,0,0"
        assert lines[1] == "1\t2\t-1,0,0,0,0,0,0,0"
        assert len(lines) == 4

    def test_text_table(self):
        m = associator_matrix([unit(1), unit(2), unit(4)])
        text = format_matrix_text(m)
        assert "[1]" in text and "-1" in text

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_text_cells_reparse_to_their_entries(self, backend):
        gen = random.Random("text-cells-5")
        m = associator_matrix([random_octonion(gen, backend, nonzero=True) for _ in range(5)])
        lines = format_matrix_text(m).split("\n")
        assert len(lines) == m.size
        for i, line in enumerate(lines):
            prefix = f"[{i + 1}] "
            assert line.startswith(prefix)
            # Cells are padded and joined by three spaces; a cell holds single spaces only.
            cells = re.split(" {3,}", line[len(prefix):])
            assert len(cells) == m.size
            for j, cell in enumerate(cells):
                parsed, entry = parse_octonion(cell, backend), m.entry(i, j)
                if backend == "exact":
                    assert parsed == entry
                else:
                    assert [v.hex() for v in parsed.c] == [v.hex() for v in entry.c]
