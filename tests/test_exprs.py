"""Expression parsing, evaluation, and round-tripping."""

import random
from fractions import Fraction

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
from octalg.exprs import Conj, Inv, Literal, Product, Var, _Token, _tokenize

from tests.strategies import backends, octonions, source_text, unit


class TestParse:
    def test_explicit_left_tree(self):
        assert parse("(x*y)*z") == Product(Product(Var("x"), Var("y")), Var("z"))

    def test_defaulted_chain_same_tree_but_flagged(self):
        explicit = parse("(x*y)*z")
        chained, chains = parse_with_info("x*y*z")
        assert chained == explicit  # flags are excluded from equality
        assert chained.defaulted
        assert not explicit.defaulted
        assert chains == [[Var("x"), Var("y"), Var("z")]]

    def test_two_factor_product_not_flagged(self):
        expr, chains = parse_with_info("x*y")
        assert not expr.defaulted
        assert chains == []

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


class TestNodeValues:
    def test_conjugate_and_inverse_differ(self):
        assert parse("x~") != parse("x^-1")
        assert Conj(Var("x")) != Inv(Var("x"))
        assert Var("x") != ("x",)

    def test_defaulted_is_outside_equality_and_hash(self):
        flagged = Product(Var("x"), Var("y"), defaulted=True)
        plain = Product(Var("x"), Var("y"))
        assert flagged == plain
        assert hash(flagged) == hash(plain)
        assert flagged.defaulted and not plain.defaulted

    def test_nodes_refuse_assignment(self):
        expr = parse("(2*x)~*y^-1")
        nodes = [
            (expr, "left"), (expr, "defaulted"), (expr.left, "inner"),
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
            "Product(left=Var(name='x'), right=Conj(inner=Var(name='y')), defaulted=False)"
        )
        assert repr(_tokenize("x", EXACT)[0]) == (
            "_Token(kind='IDENT', pos=0, text='x', value=None)"
        )

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
