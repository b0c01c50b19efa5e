"""Textual octonion expressions: AST, parser, evaluator.

Grammar::

    expression := term ('*' term)*
    term       := atom postfix*
    postfix    := '~'            (conjugate)
                | '^-1'          (inverse)
    atom       := literal | identifier | '(' expression ')'

Literals use the shared octonion text format and are consumed greedily,
so ``2 - 3/4e1`` inside an expression is a single literal (the grammar
has no addition operator).  ``*`` associates left by default; because the
algebra is non-associative, the parser records which product groupings
were defaulted rather than written, so callers can warn about them.
Identifiers match ``[a-zA-Z][a-zA-Z0-9_]*``; the unit names e0..e7 are
reserved literals and cannot be bound.  Expressions nest at most
`MAX_DEPTH` levels deep; a deeper one is a ParseError at the token that
passes the limit.
"""

from __future__ import annotations

from typing import Union

from .core import EXACT, Octonion, _Record, _fold
from .errors import NonFiniteError, ParseError, ReservedIdentifierError, UnboundVariableError
from .textform import UNIT_NAMES, WORD_RE, _scan_word, _skip_ws, format_octonion, scan_octonion


class Literal(_Record):
    __slots__ = ("value",)  # Octonion


class Var(_Record):
    __slots__ = ("name",)  # str


class Product(_Record):
    __slots__ = ("left", "right")  # Expr, Expr
    _children = ("left", "right")


class Conj(_Record):
    __slots__ = ("inner",)  # Expr
    _children = ("inner",)


class Inv(_Record):
    __slots__ = ("inner",)  # Expr
    _children = ("inner",)


Expr = Union[Literal, Var, Product, Conj, Inv]


class Environment:
    """Variable bindings for expression evaluation."""

    def __init__(self, bindings: dict[str, Octonion] | None = None):
        self._bindings: dict[str, Octonion] = {}
        if bindings:
            for name, value in bindings.items():
                self.bind(name, value)

    def bind(self, name: str, value: Octonion) -> None:
        if name in UNIT_NAMES:
            raise ReservedIdentifierError(
                f"{name!r} is a reserved unit name and cannot be bound"
            )
        if not WORD_RE.fullmatch(name):
            raise ValueError(f"invalid identifier {name!r}")
        self._bindings[name] = value

    def lookup(self, name: str) -> Octonion:
        try:
            return self._bindings[name]
        except KeyError:
            raise UnboundVariableError(name) from None


# -- tokenizer -------------------------------------------------------------

_SIMPLE_TOKENS = {"*": "STAR", "~": "CONJ", "(": "LPAREN", ")": "RPAREN"}


class _Token(_Record):
    __slots__ = ("kind", "pos", "text", "value")  # str, int, str, Octonion or None
    _defaults = ("", None)


def _tokenize(source: str, backend: str) -> list[_Token]:
    """The tokens of ``source``, ending with an END token.

    A literal starts at a sign, a digit or a unit name, and `scan_octonion`
    alone decides where it ends; any other word is an identifier.
    """
    tokens = []
    i = 0
    while True:
        i = _skip_ws(source, i)
        if i == len(source):
            tokens.append(_Token("END", i))
            return tokens
        ch = source[i]
        if ch in _SIMPLE_TOKENS:
            tokens.append(_Token(_SIMPLE_TOKENS[ch], i, ch))
            i += 1
            continue
        if ch == "^":
            if source[i : i + 3] != "^-1":
                raise ParseError(i, ("'^-1'",), source[i : i + 3])
            tokens.append(_Token("INV", i, "^-1"))
            i += 3
            continue
        word = _scan_word(source, i)
        if ch in "+-" or ch.isdigit() or word in UNIT_NAMES:
            value, end = scan_octonion(source, i, backend)
            tokens.append(_Token("LITERAL", i, source[i:end], value))
        elif word:
            end = i + len(word)
            tokens.append(_Token("IDENT", i, word))
        else:
            raise ParseError(i, ("literal", "identifier", "'('"), ch)
        i = end


# -- parser ----------------------------------------------------------------

# The deepest expression accepted.  A literal or identifier is depth 0; a
# parenthesized expression, a postfix operator and a product each sit one
# level above their deepest operand, so a flat chain of n factors is n - 1
# deep.  Evaluation, rendering, equality, repr, copy and pickle walk any
# depth, but the parser recurses on parentheses, so a deeper expression is
# refused here rather than left to exhaust Python's recursion limit.
MAX_DEPTH = 200


def _deeper(depth: int, token: _Token) -> int:
    """``depth + 1``, or a ParseError at ``token`` past `MAX_DEPTH`."""
    if depth >= MAX_DEPTH:
        raise ParseError(
            token.pos,
            (),
            token.text,
            reason=f"expression nests deeper than the limit of {MAX_DEPTH} levels",
        )
    return depth + 1


class _Parser:
    # Each rule returns its expression with that expression's depth.
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.chains: list[list[Expr]] = []
        # Open parentheses around the current position: bounded before
        # descending, since each one is three frames of recursion.
        self.open = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expression(self) -> tuple[Expr, int]:
        expr, depth = self.term()
        factors = [expr]
        while self.peek().kind == "STAR":
            star = self.advance()
            factor, factor_depth = self.term()
            factors.append(factor)
            depth = _deeper(max(depth, factor_depth), star)
        if len(factors) >= 3:
            self.chains.append(factors)
        for factor in factors[1:]:
            expr = Product(expr, factor)
        return expr, depth

    def term(self) -> tuple[Expr, int]:
        expr, depth = self.atom()
        while True:
            token = self.peek()
            if token.kind == "CONJ":
                expr = Conj(expr)
            elif token.kind == "INV":
                expr = Inv(expr)
            else:
                return expr, depth
            self.advance()
            depth = _deeper(depth, token)

    def atom(self) -> tuple[Expr, int]:
        token = self.peek()
        if token.kind == "LITERAL":
            self.advance()
            return Literal(token.value), 0
        if token.kind == "IDENT":
            self.advance()
            return Var(token.text), 0
        if token.kind == "LPAREN":
            self.open = _deeper(self.open, token)
            self.advance()
            expr, depth = self.expression()
            closing = self.peek()
            if closing.kind != "RPAREN":
                raise ParseError(closing.pos, ("')'",), closing.text)
            self.advance()
            self.open -= 1
            return expr, _deeper(depth, token)
        raise ParseError(token.pos, ("literal", "identifier", "'('"), token.text)


def parse_with_info(source: str, backend: str = EXACT) -> tuple[Expr, list[list[Expr]]]:
    """Parse and also return the product chains whose grouping was defaulted
    (length >= 3 with no explicit parentheses), for associativity warnings."""
    parser = _Parser(_tokenize(source, backend))
    expr, _ = parser.expression()
    trailing = parser.peek()
    if trailing.kind != "END":
        raise ParseError(trailing.pos, ("'*'", "end of input"), trailing.text)
    return expr, parser.chains


def parse(source: str, backend: str = EXACT) -> Expr:
    """Parse an expression; raises ParseError with offset and expected set."""
    return parse_with_info(source, backend)[0]


# -- evaluation and rendering ----------------------------------------------

def eval_expr(expr: Expr, env: Environment | None = None) -> Octonion:
    """Structurally evaluate; products follow the tree exactly."""
    if env is None:
        env = Environment()

    def value(e, *operands):
        if isinstance(e, Literal):
            return e.value
        if isinstance(e, Var):
            return env.lookup(e.name)
        if isinstance(e, Conj):
            return operands[0].conjugate()
        if isinstance(e, Inv):
            try:
                return operands[0].inverse()
            except NonFiniteError:
                # Refused again, naming the operand as written, not by its
                # value; rendered only here, as it costs a walk of the operand.
                return operands[0].inverse(name=render_expr(e.inner))
        if isinstance(e, Product):
            return operands[0] * operands[1]
        raise TypeError(f"not an expression node: {e!r}")

    return _fold(expr, value)


def _is_multi_term(text: str) -> bool:
    return " + " in text or " - " in text


def _render_tight(e: Expr, text: str) -> str:
    # Operand position: products and multi-term literals need parentheses.
    if isinstance(e, Product) or (isinstance(e, Literal) and _is_multi_term(text)):
        return f"({text})"
    return text


def render_expr(e: Expr) -> str:
    """Render with minimal parentheses; reparsing gives an equal tree."""
    return _fold(e, _expr_text)


def _expr_text(node: Expr, *operands: str) -> str:
    """`render_expr`'s rule for ``node``, whose operands render as ``operands``."""
    if isinstance(node, Literal):
        return format_octonion(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Product):
        left, right = operands
        if isinstance(node.left, Literal) and _is_multi_term(left):
            left = f"({left})"
        return f"{left}*{_render_tight(node.right, right)}"
    if isinstance(node, (Conj, Inv)):
        suffix = "~" if isinstance(node, Conj) else "^-1"
        return _render_tight(node.inner, operands[0]) + suffix
    raise TypeError(f"not an expression node: {node!r}")
