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
reserved literals and cannot be bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .core import EXACT, Octonion
from .errors import ParseError, ReservedIdentifierError, UnboundVariableError
from .textform import UNIT_NAMES, WORD_RE, format_octonion, scan_octonion


@dataclass(frozen=True)
class Literal:
    value: Octonion


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Product:
    left: "Expr"
    right: "Expr"
    # True when this grouping came from the left-associative default rather
    # than from explicit parentheses; excluded from structural equality.
    defaulted: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Conj:
    inner: "Expr"


@dataclass(frozen=True)
class Inv:
    inner: "Expr"


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

    def names(self) -> list[str]:
        return sorted(self._bindings)


# -- tokenizer -------------------------------------------------------------

_SIMPLE_TOKENS = {"*": "STAR", "~": "CONJ", "(": "LPAREN", ")": "RPAREN"}


@dataclass(frozen=True)
class _Token:
    kind: str
    pos: int
    text: str = ""
    value: Octonion | None = None


def _tokenize(source: str, backend: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while True:
        while i < n and source[i].isspace():
            i += 1
        if i >= n:
            tokens.append(_Token("END", n))
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
        if ch in "+-" or ch.isdigit():
            value, end = scan_octonion(source, i, backend)
            tokens.append(_Token("LITERAL", i, source[i:end], value))
            i = end
            continue
        word = WORD_RE.match(source, i)
        if word:
            name = word.group(0)
            if name in UNIT_NAMES:
                value, end = scan_octonion(source, i, backend)
                tokens.append(_Token("LITERAL", i, source[i:end], value))
                i = end
            else:
                tokens.append(_Token("IDENT", i, name))
                i = word.end()
            continue
        raise ParseError(i, ("literal", "identifier", "'('"), ch)


# -- parser ----------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.chains: list[list[Expr]] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expression(self) -> Expr:
        factors = [self.term()]
        while self.peek().kind == "STAR":
            self.advance()
            factors.append(self.term())
        defaulted = len(factors) >= 3
        if defaulted:
            self.chains.append(list(factors))
        expr = factors[0]
        for factor in factors[1:]:
            expr = Product(expr, factor, defaulted=defaulted)
        return expr

    def term(self) -> Expr:
        expr = self.atom()
        while True:
            kind = self.peek().kind
            if kind == "CONJ":
                self.advance()
                expr = Conj(expr)
            elif kind == "INV":
                self.advance()
                expr = Inv(expr)
            else:
                return expr

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "LITERAL":
            self.advance()
            return Literal(token.value)
        if token.kind == "IDENT":
            self.advance()
            return Var(token.text)
        if token.kind == "LPAREN":
            self.advance()
            expr = self.expression()
            closing = self.peek()
            if closing.kind != "RPAREN":
                raise ParseError(closing.pos, ("')'",), closing.text)
            self.advance()
            return expr
        raise ParseError(token.pos, ("literal", "identifier", "'('"), token.text)


def parse_with_info(source: str, backend: str = EXACT) -> tuple[Expr, list[list[Expr]]]:
    """Parse and also return the product chains whose grouping was defaulted
    (length >= 3 with no explicit parentheses), for associativity warnings."""
    parser = _Parser(_tokenize(source, backend))
    expr = parser.expression()
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
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Var):
        return env.lookup(expr.name)
    if isinstance(expr, Conj):
        return eval_expr(expr.inner, env).conjugate()
    if isinstance(expr, Inv):
        return eval_expr(expr.inner, env).inverse()
    if isinstance(expr, Product):
        return eval_expr(expr.left, env) * eval_expr(expr.right, env)
    raise TypeError(f"not an expression node: {expr!r}")


def _literal_text(e: Literal) -> str:
    return format_octonion(e.value)


def _is_multi_term(text: str) -> bool:
    return " + " in text or " - " in text


def _render_tight(e: Expr) -> str:
    # Operand position: products and multi-term literals need parentheses.
    text = render_expr(e)
    if isinstance(e, Product) or (isinstance(e, Literal) and _is_multi_term(text)):
        return f"({text})"
    return text


def render_expr(e: Expr) -> str:
    """Render with minimal parentheses; reparsing gives an equal tree."""
    if isinstance(e, Literal):
        return _literal_text(e)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Conj):
        return _render_tight(e.inner) + "~"
    if isinstance(e, Inv):
        return _render_tight(e.inner) + "^-1"
    if isinstance(e, Product):
        left = render_expr(e.left)
        if isinstance(e.left, Literal) and _is_multi_term(left):
            left = f"({left})"
        return f"{left}*{_render_tight(e.right)}"
    raise TypeError(f"not an expression node: {e!r}")
