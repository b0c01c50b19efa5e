"""Expression parsing, evaluation, and round-tripping."""

import copy
import pickle
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given

from octalg import (
    Environment,
    Octonion,
    ParseError,
    ReservedIdentifierError,
    UnboundVariableError,
    ZeroInverseError,
    eval_expr,
    parse,
    parse_with_info,
    render_expr,
)
from octalg.core import EXACT
from octalg.exprs import MAX_DEPTH, Conj, Inv, Literal, Product, Var, _Token, _tokenize
from octalg.trees import Leaf

from tests.strategies import backends, octonions, source_text, unit


class TestParse:
    def test_explicit_left_tree(self):
        assert parse("(x*y)*z") == Product(Product(Var("x"), Var("y")), Var("z"))

    def test_defaulted_chain_same_tree_but_flagged(self):
        explicit, explicit_chains = parse_with_info("(x*y)*z")
        chained, chains = parse_with_info("x*y*z")
        assert chained == explicit  # the tree does not record how it was grouped
        assert chains == [[Var("x"), Var("y"), Var("z")]]
        assert explicit_chains == []

    def test_two_factor_product_not_flagged(self):
        expr, chains = parse_with_info("x*y")
        assert expr == Product(Var("x"), Var("y"))
        assert chains == []

    def test_chains_inside_parentheses_are_flagged(self):
        expr, chains = parse_with_info("(x*y*z)*w~")
        assert expr == Product(Product(Product(Var("x"), Var("y")), Var("z")), Conj(Var("w")))
        assert chains == [[Var("x"), Var("y"), Var("z")]]

    def test_postfix_chaining(self):
        assert parse("x~^-1") == Inv(Conj(Var("x")))
        assert parse("x^-1~") == Conj(Inv(Var("x")))

    def test_literal_atoms(self):
        expr = parse("2 - 3/4e1 + e7")
        assert expr == Literal(Octonion.parse("2 - 3/4e1 + e7"))

    def test_literal_greedy_inside_product(self):
        expr = parse("x*2 - 3e1")
        assert expr == Product(Var("x"), Literal(Octonion.parse("2 - 3e1")))

    def test_unit_literals(self):
        assert parse("e7") == Literal(unit(7))
        assert parse("e0") == Literal(Octonion.one())

    def test_parenthesized(self):
        assert parse("((x))") == Var("x")

    def test_nested_chain_detection(self):
        _, chains = parse_with_info("a*(b*c*d)")
        assert chains == [[Var("b"), Var("c"), Var("d")]]

    def test_e8_is_an_identifier(self):
        assert parse("e8") == Var("e8")
        assert parse("e77") == Var("e77")

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as info:
            parse("x*")
        assert info.value.offset == 2
        with pytest.raises(ParseError) as info:
            parse("(x")
        assert info.value.offset == 2
        with pytest.raises(ParseError) as info:
            parse("x y")
        assert info.value.offset == 2

    def test_caret_requires_minus_one(self):
        with pytest.raises(ParseError, match="\\^-1"):
            parse("x^2")

    def test_float_literals_follow_backend(self):
        expr = parse("1.5e1*x", backend="float")
        assert expr == Product(Literal(Octonion([0.0, 1.5] + [0.0] * 6)), Var("x"))
        with pytest.raises(ParseError):
            parse("1.5*x", backend="exact")

    @given(source_text, backends)
    def test_arbitrary_text_raises_only_value_errors(self, text, backend):
        try:
            parse(text, backend)
        except ValueError:
            pass


def _deep(shape: str, depth: int) -> str:
    """An expression of one shape, nested ``depth`` levels deep."""
    if shape == "parentheses":
        return "(" * depth + "e1" + ")" * depth
    if shape == "postfix":
        return "e1" + "~" * depth
    return "*".join(["e1"] * (depth + 1))


class TestDepthLimit:
    SHAPES = ["parentheses", "postfix", "chain"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_at_the_limit_parses_evaluates_and_renders(self, shape):
        expr = parse(_deep(shape, MAX_DEPTH))
        e1 = unit(1)
        expected = {
            "parentheses": e1,
            "postfix": e1 if MAX_DEPTH % 2 == 0 else -e1,
            "chain": reduce(mul, [e1] * (MAX_DEPTH + 1)),
        }
        assert eval_expr(expr) == expected[shape]
        assert parse(render_expr(expr)) == expr

    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_past_the_limit_is_refused_where_it_passes(self, shape):
        source = _deep(shape, MAX_DEPTH + 1)
        with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH} levels") as info:
            parse(source)
        # The (MAX_DEPTH + 1)-th '(', '~' or '*' from the left.
        offsets = {"parentheses": MAX_DEPTH, "postfix": 2 + MAX_DEPTH, "chain": 3 * MAX_DEPTH + 2}
        assert info.value.offset == offsets[shape]
        assert source[info.value.offset] in "(~*"

    def test_depth_counts_every_level_kind(self):
        # One parenthesis pair, one postfix and one product per level.
        levels = MAX_DEPTH // 3
        parse("e1*(" * levels + "e1" + ")~" * levels)
        with pytest.raises(ParseError, match="limit"):
            parse("e1*(" * (levels + 1) + "e1" + ")~" * (levels + 1))


class TestNodeValues:
    def test_conjugate_and_inverse_differ(self):
        assert parse("x~") != parse("x^-1")
        assert Conj(Var("x")) != Inv(Var("x"))
        assert Var("x") != ("x",)

    def test_defaulted_is_outside_equality_and_hash(self):
        flagged, chains = parse_with_info("x*y*z")
        plain, no_chains = parse_with_info("(x*y)*z")
        assert flagged == plain
        assert hash(flagged) == hash(plain)
        assert chains and not no_chains

    def test_nodes_refuse_assignment(self):
        expr = parse("(2*x)~*y^-1")
        nodes = [
            (expr, "left"), (expr, "right"), (expr.left, "inner"),
            (expr.right, "inner"), (expr.left.inner.left, "value"),
            (expr.left.inner.right, "name"),
        ]
        for node, name in nodes:
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        with pytest.raises(AttributeError):
            _tokenize("x", EXACT)[0].kind = "END"

    def test_repr(self):
        assert repr(Product(Var("x"), Conj(Var("y")))) == (
            "Product(left=Var(name='x'), right=Conj(inner=Var(name='y')))"
        )
        assert repr(_tokenize("x", EXACT)[0]) == (
            "_Token(kind='IDENT', pos=0, text='x', value=None)"
        )

    def test_a_value_that_is_not_an_expression_node_is_a_type_error(self):
        for bad in (42, Product(Literal(unit(1)), 42), Conj(Leaf(1))):
            with pytest.raises(TypeError, match="42|Leaf"):
                eval_expr(bad)
            with pytest.raises(TypeError, match="42|Leaf"):
                render_expr(bad)

    def test_tokens_compare_by_fields(self):
        assert _tokenize("x*", EXACT) == [
            _Token("IDENT", 0, "x"), _Token("STAR", 1, "*"), _Token("END", 2)
        ]


class TestEnvironment:
    def test_bind_and_lookup(self):
        env = Environment()
        env.bind("spin", unit(3))
        assert env.lookup("spin") == unit(3)

    def test_reserved_units_rejected(self):
        env = Environment()
        for k in range(8):
            with pytest.raises(ReservedIdentifierError):
                env.bind(f"e{k}", Octonion.one())

    def test_invalid_identifier_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.bind("9lives", Octonion.one())
        with pytest.raises(ValueError):
            env.bind("_x", Octonion.one())

    def test_unbound(self):
        with pytest.raises(UnboundVariableError, match="'ghost'"):
            Environment().lookup("ghost")


class TestEval:
    def test_tree_order_matters(self):
        assert eval_expr(parse("(e1*e2)*e4")) == unit(7)
        assert eval_expr(parse("e1*(e2*e4)")) == -unit(7)

    def test_inverse_law(self):
        env = Environment({"x": Octonion.parse("3 - e2 + 2e6")})
        assert eval_expr(parse("x*x^-1"), env) == Octonion.one()

    def test_conjugate(self):
        env = Environment({"x": Octonion.parse("1 + e1")})
        assert eval_expr(parse("x~"), env) == Octonion.parse("1 - e1")

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_expr(parse("x*y"), Environment({"x": unit(1)}))

    def test_zero_inverse(self):
        env = Environment({"x": Octonion.zero()})
        with pytest.raises(ZeroInverseError):
            eval_expr(parse("x^-1"), env)

    @given(octonions, octonions)
    def test_defaulted_chain_evaluates_left(self, x, y):
        env = Environment({"x": x, "y": y, "z": unit(4)})
        assert eval_expr(parse("x*y*z"), env) == (x * y) * unit(4)


# Expressions 2,000 levels deep, built in code: the depth limit guards only
# text, so evaluation and rendering must not recurse once per level.
DEEP = 2000
X = Octonion.parse("1 + 2e1 - 1/3e5")


def _deep_expr(shape, innermost=None):
    expr = innermost or (Literal(X) if shape in ("conjugates", "inverses") else Var("x"))
    for _ in range(DEEP):
        if shape == "conjugates":
            expr = Conj(expr)
        elif shape == "inverses":
            expr = Inv(expr)
        elif shape == "left products":
            expr = Product(expr, Var("y"))
        else:
            expr = Product(Var("y"), expr)
    return expr


class TestDeepExpressionsBuiltInCode:
    ENV = Environment({"x": X, "y": unit(3)})

    EXPECTED = {
        "conjugates": ("(1 + 2e1 - 1/3e5)" + "~" * DEEP, X),
        "inverses": ("(1 + 2e1 - 1/3e5)" + "^-1" * DEEP, X),
        "left products": ("x" + "*y" * DEEP, reduce(mul, [X] + [unit(3)] * DEEP)),
        "right products": (
            "y*(" * (DEEP - 1) + "y*x" + ")" * (DEEP - 1),
            reduce(lambda acc, f: f * acc, [unit(3)] * DEEP, X),
        ),
    }

    @pytest.mark.parametrize("shape", EXPECTED)
    def test_evaluate_and_render(self, shape):
        text, value = self.EXPECTED[shape]
        expr = _deep_expr(shape)
        assert eval_expr(expr, self.ENV) == value
        assert render_expr(expr) == text

    REPRS = {
        "conjugates": "Conj(inner=" * DEEP + repr(Literal(X)) + ")" * DEEP,
        "inverses": "Inv(inner=" * DEEP + repr(Literal(X)) + ")" * DEEP,
        "left products": "Product(left=" * DEEP + "Var(name='x')" + ", right=Var(name='y'))" * DEEP,
        "right products": "Product(left=Var(name='y'), right=" * DEEP + "Var(name='x')" + ")" * DEEP,
    }

    @pytest.mark.parametrize("shape", EXPECTED)
    def test_compare_hash_and_repr(self, shape):
        expr, twin = _deep_expr(shape), _deep_expr(shape)
        assert expr == twin and not expr != twin
        assert hash(expr) == hash(twin)
        assert repr(expr) == self.REPRS[shape]
        # Trees that differ only at their deepest operand, or in one node
        # type, are unequal.
        assert _deep_expr(shape, innermost=Var("z")) != expr
        other = "inverses" if shape == "conjugates" else "conjugates"
        assert _deep_expr(other) != expr

    @pytest.mark.parametrize("shape", ["conjugates", "right products"])
    def test_copy_and_pickle(self, shape):
        expr = _deep_expr(shape, innermost=Var("x"))
        assert copy.deepcopy(expr) == expr
        assert pickle.loads(pickle.dumps(expr)) == expr


def _random_expr(gen: random.Random, depth: int = 0):
    roll = gen.random()
    if depth >= 4 or roll < 0.3:
        if gen.random() < 0.5:
            coeffs = [Fraction(gen.randint(-5, 5), gen.randint(1, 5)) for _ in range(8)]
            return Literal(Octonion(coeffs))
        return Var(gen.choice(["x", "y", "spin", "q2"]))
    if roll < 0.55:
        return Product(_random_expr(gen, depth + 1), _random_expr(gen, depth + 1))
    if roll < 0.7:
        return Conj(_random_expr(gen, depth + 1))
    if roll < 0.85:
        return Inv(_random_expr(gen, depth + 1))
    left = _random_expr(gen, depth + 1)
    right = _random_expr(gen, depth + 1)
    return Product(left, right)


class TestRoundTrip:
    def test_generated_expressions(self):
        gen = random.Random("round-trip")
        for _ in range(300):
            expr = _random_expr(gen)
            text = render_expr(expr)
            assert parse(text) == expr, text

    def test_render_spot_checks(self):
        assert render_expr(parse("(x*y)*z")) == "x*y*z"
        assert render_expr(parse("x*(y*z)")) == "x*(y*z)"
        assert render_expr(parse("(x*y)~")) == "(x*y)~"
        assert render_expr(parse("x~^-1")) == "x~^-1"

    def test_multi_term_literal_parenthesized(self):
        expr = Product(Var("a"), Literal(Octonion.parse("2 + e1")))
        assert render_expr(expr) == "a*(2 + e1)"
        assert parse(render_expr(expr)) == expr
