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

from .core import EXACT, Octonion, _Record, _postorder
from .errors import ParseError, ReservedIdentifierError, UnboundVariableError
from .textform import UNIT_NAMES, WORD_RE, format_octonion, scan_octonion


class Literal(_Record):
    __slots__ = ("value",)

    def __init__(self, value: Octonion):
        object.__setattr__(self, "value", value)


class Var(_Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Product(_Record):
    __slots__ = ("left", "right")
    _children = ("left", "right")

    def __init__(self, left: "Expr", right: "Expr"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class Conj(_Record):
    __slots__ = ("inner",)
    _children = ("inner",)

    def __init__(self, inner: "Expr"):
        object.__setattr__(self, "inner", inner)


class Inv(_Record):
    __slots__ = ("inner",)
    _children = ("inner",)

    def __init__(self, inner: "Expr"):
        object.__setattr__(self, "inner", inner)


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
    __slots__ = ("kind", "pos", "text", "value")

    def __init__(
        self, kind: str, pos: int, text: str = "", value: Octonion | None = None
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "value", value)


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
    values = []
    for e in _postorder(expr):
        if isinstance(e, Literal):
            values.append(e.value)
        elif isinstance(e, Var):
            values.append(env.lookup(e.name))
        elif isinstance(e, Conj):
            values.append(values.pop().conjugate())
        elif isinstance(e, Inv):
            values.append(values.pop().inverse())
        elif isinstance(e, Product):
            right = values.pop()
            values.append(values.pop() * right)
        else:
            raise TypeError(f"not an expression node: {e!r}")
    return values[0]


def _is_multi_term(text: str) -> bool:
    return " + " in text or " - " in text


def _render_tight(e: Expr, text: str) -> str:
    # Operand position: products and multi-term literals need parentheses.
    if isinstance(e, Product) or (isinstance(e, Literal) and _is_multi_term(text)):
        return f"({text})"
    return text


def render_expr(e: Expr) -> str:
    """Render with minimal parentheses; reparsing gives an equal tree."""
    texts = []
    for node in _postorder(e):
        if isinstance(node, Literal):
            texts.append(format_octonion(node.value))
        elif isinstance(node, Var):
            texts.append(node.name)
        elif isinstance(node, Product):
            right = _render_tight(node.right, texts.pop())
            left = texts.pop()
            if isinstance(node.left, Literal) and _is_multi_term(left):
                left = f"({left})"
            texts.append(f"{left}*{right}")
        elif isinstance(node, (Conj, Inv)):
            suffix = "~" if isinstance(node, Conj) else "^-1"
            texts.append(_render_tight(node.inner, texts.pop()) + suffix)
        else:
            raise TypeError(f"not an expression node: {node!r}")
    return texts[0]
