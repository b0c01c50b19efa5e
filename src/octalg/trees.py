"""Product trees: every parenthesization of an n-factor product.

A ProductTree is a full binary tree whose leaves carry the 1-based factor
positions 1..n in left-to-right order; it encodes one evaluation order of
the product without ever reordering the factors.  There are Catalan(n-1)
such trees.

Canonical enumeration order, fixed in `_span_fold` alone: for leaves lo..hi,
iterate the split point s = lo..hi-1 (left subtree over lo..s, right over
s+1..hi), recursing on the left first.  Trees, products and labels all come
from that fold.  For n = 4 this yields, in order:

    x1*(x2*(x3*x4)), x1*((x2*x3)*x4), (x1*x2)*(x3*x4),
    (x1*(x2*x3))*x4, ((x1*x2)*x3)*x4

Products fold over each span's distinct values, not over its trees
(`_distinct_products`): the bi-associativity check reads only the whole
product's distinct values, and `tree_products` reads one value per tree
from the fold's tables for the callers that list every order.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence, Union

from .core import (
    EXACT,
    FLOAT,
    Octonion,
    Scalar,
    _Record,
    _new,
    _norm_range_error,
    _postorder,
    resolve_tolerance,
)
from .errors import NonFiniteError, OutOfRangeError, ShapeMismatchError, ZeroInverseError

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)

MAX_ENUMERATE_FACTORS = 12
MAX_MATRIX_FACTORS = 8


class Leaf(_Record):
    __slots__ = ("position",)  # 1-based factor index

    def __init__(self, position: int):
        object.__setattr__(self, "position", position)


class Node(_Record):
    __slots__ = ("left", "right")
    _children = ("left", "right")

    def __init__(self, left: "ProductTree", right: "ProductTree"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


ProductTree = Union[Leaf, Node]


def leaf_positions(tree: ProductTree) -> list[int]:
    """Leaf positions in in-order traversal."""
    return [t.position for t in _postorder(tree) if isinstance(t, Leaf)]


def _span_fold(leaves: Sequence, join) -> list:
    """The result list over all of ``leaves``, built narrowest span first: a
    leaf's span holds ``[leaf]``; span lo..hi holds ``join`` of its
    ``(lefts, rights)`` sub-span result lists, one pair per split in order."""
    n = len(leaves)
    span = {(k, k): [leaf] for k, leaf in enumerate(leaves)}
    for width in range(1, n):
        for lo in range(n - width):
            hi = lo + width
            span[lo, hi] = join([(span[lo, split], span[split + 1, hi]) for split in range(lo, hi)])
    return span[0, n - 1]


def _pairwise(combine):
    """A `_span_fold` join: ``combine`` each left result with each right one."""
    return lambda splits: [combine(a, b) for lefts, rights in splits for a in lefts for b in rights]


@lru_cache(maxsize=None)
def _trees(n: int) -> tuple:
    return tuple(_span_fold([Leaf(k) for k in range(1, n + 1)], _pairwise(Node)))


def _tree_labels(n: int) -> list[str]:
    """`render_tree` of every tree of `enumerate_trees`, in the same order."""
    labels = _span_fold([f"x{k}" for k in range(1, n + 1)], _pairwise("({}*{})".format))
    # Every label but a lone leaf's carries one pair of outer parentheses.
    return labels if n == 1 else [label[1:-1] for label in labels]


def _require_enumerable(n: int) -> None:
    if not 1 <= n <= MAX_ENUMERATE_FACTORS:
        raise OutOfRangeError(
            f"factor count must be in 1..{MAX_ENUMERATE_FACTORS}, got {n}"
        )


def enumerate_trees(n: int) -> list[ProductTree]:
    """All parenthesizations of an n-factor product, in canonical order."""
    _require_enumerable(n)
    return list(_trees(n))


def left_comb(n: int) -> ProductTree:
    """The fully left-nested tree ((x1*x2)*x3)*..."""
    tree: ProductTree = Leaf(1)
    for k in range(2, n + 1):
        tree = Node(tree, Leaf(k))
    return tree


def right_comb(n: int) -> ProductTree:
    """The fully right-nested tree x1*(x2*(...*xn))."""
    tree: ProductTree = Leaf(n)
    for k in range(n - 1, 0, -1):
        tree = Node(Leaf(k), tree)
    return tree


def render_tree(tree: ProductTree) -> str:
    """Render as an expression, e.g. ``(x1*x2)*x3``: leaf k as ``xk``."""
    texts = []
    for t in _postorder(tree):
        if isinstance(t, Leaf):
            texts.append(f"x{t.position}")
        else:
            right = texts.pop()
            texts.append(f"({texts.pop()}*{right})")
    text = texts[0]
    return text if isinstance(tree, Leaf) else text[1:-1]


def evaluate(tree: ProductTree, factors: Sequence[Octonion]) -> Octonion:
    """Evaluate the product of ``factors`` in the order the tree encodes."""
    if leaf_positions(tree) != list(range(1, len(factors) + 1)):
        raise ShapeMismatchError(
            f"tree leaves must be positions 1..{len(factors)} in order"
        )
    values = []
    for t in _postorder(tree):
        if isinstance(t, Leaf):
            values.append(factors[t.position - 1])
        else:
            right = values.pop()
            values.append(values.pop() * right)
    return values[0]


def _distinct_products(factors: Sequence[Octonion]) -> tuple[list[Octonion], list]:
    """``(values, tables)``: the distinct products of ``factors`` over every
    tree, in the order the canonical trees first reach them, and the fold's
    record of how each span's values were made.

    Each span keeps its distinct products, and for each split a table whose
    row ``a``, column ``b`` is the index in that list of the product of
    left value ``a`` and right value ``b``.  Every such pair is multiplied
    once, and equal products are kept as one shared object (safe: an
    Octonion is immutable).  Pairs are visited split by split in row-major
    order, which is the order the canonical trees first reach them, since
    each sub-span's values are in that order too; so the first value is the
    product under the first tree.  ``tables`` holds each span's list of
    per-split tables, spans in `_span_fold` order.
    """
    tables = []

    def join(splits):
        # Each value's index, in the order first made; a dict keeps the
        # first object of equal keys, and its keys in insertion order.
        index = {}
        tables.append([
            [[index.setdefault(left * right, len(index)) for right in rights] for left in lefts]
            for lefts, rights in splits
        ])
        return list(index)

    return _span_fold(factors, join), tables


def tree_products(factors: Sequence[Octonion]) -> list[Octonion]:
    """The product of ``factors`` under every tree of `enumerate_trees`, in
    the same canonical order.

    The products are the `_distinct_products` of ``factors``: each distinct
    pair of sub-span values is multiplied once per span, and equal products
    of a span are one shared object, so the spans above see them as one
    value.  Generic factors merge nothing and cost one multiplication per
    tree of each span; an exact word in two generators, whose every span
    has a single value (Artin's theorem), costs (n**3 - n) / 6.  The
    per-tree list is then read from the fold's tables, one index per tree.

    Every product is computed with the same operands as `evaluate` would
    use, so float results agree with it bit for bit.  Sharing by equality
    keeps that: of equal floats only +0.0 and -0.0 differ in bits, and a
    product never holds -0.0, since each of its sums starts from +0.0; a
    NaN equals nothing, so a product holding one is never merged.
    """
    _require_enumerable(len(factors))
    values, tables = _distinct_products(factors)
    # The same fold over value indices visits the spans in the order their
    # tables were recorded.
    span_tables = iter(tables)

    def join(splits):
        return [
            row[b]
            for (lefts, rights), table in zip(splits, next(span_tables))
            for row in map(table.__getitem__, lefts)
            for b in rights
        ]

    return [values[k] for k in _span_fold([0] * len(factors), join)]


def _require_nonzero_factors(factors: Sequence[Octonion]) -> None:
    for k, f in enumerate(factors, start=1):
        if not f:
            raise ZeroInverseError(f"factor {k} is zero; all factors must be invertible")


def _require_representable(factors: Sequence[Octonion], products: Sequence[Octonion]) -> None:
    """On float, NonFiniteError naming the first of ``products``, the
    `tree_products` of ``factors``, by its 1-based order, that left the
    binary64 range: a coefficient that is not finite, or, when every factor
    is nonzero, a product that underflowed to exactly 0."""
    if factors[0].backend != FLOAT:
        return
    factors_nonzero = all(factors)
    for k, p in enumerate(products, start=1):
        if not all(map(math.isfinite, p.c)):
            raise NonFiniteError(f"the product under order {k} is beyond the binary64 range")
        if factors_nonzero and not p:
            raise NonFiniteError(f"the product under order {k} underflows binary64 to 0")


def generalized_associator(i: int, j: int, factors: Sequence[Octonion]) -> Octonion:
    """inverse(p_i) * p_j, where p_k is the product under the k-th canonical
    tree; multiplying p_i by the result gives p_j."""
    trees = enumerate_trees(len(factors))
    if not (0 <= i < len(trees) and 0 <= j < len(trees)):
        raise IndexError(
            f"tree indices must be in 0..{len(trees) - 1}, got ({i}, {j})"
        )
    _require_nonzero_factors(factors)
    p_i = evaluate(trees[i], factors)
    p_j = evaluate(trees[j], factors)
    return p_i.inverse() * p_j


class AssociatorMatrix(_Record):
    """Every pairwise evaluation-order associator of one factor sequence.

    Entry (i, j) converts the product under tree i into the product under
    tree j: it is the ``a`` with ``products[i] * a == products[j]``, where
    ``products`` holds the `tree_products` of the factors.  The diagonal is
    1 and entry (j, i) is the conjugate of entry (i, j).

    ``flat`` holds the entries row-major, entry (i, j) at index
    ``i * size + j``: on float a read-only ``(size * size, 8)`` float64
    array, on exact a list of octonions, both read through `_octonions`.
    Equality is identity, since ``flat`` may be an array.
    """

    __slots__ = ("n", "products", "flat")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, products: tuple[Octonion, ...], flat):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "products", products)
        object.__setattr__(self, "flat", flat)

    @property
    def size(self) -> int:
        return len(self.products)

    def entry(self, i: int, j: int) -> Octonion:
        size = self.size
        if not (0 <= i < size and 0 <= j < size):
            raise IndexError(f"matrix indices must be in 0..{size - 1}, got ({i}, {j})")
        k = i * size + j
        return _octonions(self, k, k + 1)[0]


def associator_matrix(factors: Sequence[Octonion]) -> AssociatorMatrix:
    """All pairwise order-conversion factors of ``factors``, from their
    `tree_products`.  A factor count outside 1..MAX_MATRIX_FACTORS or a zero
    factor is refused before any product; on float, so is a product or a
    squared norm of one beyond the binary64 range, after the products."""
    n = len(factors)
    if not 1 <= n <= MAX_MATRIX_FACTORS:
        raise OutOfRangeError(
            f"matrix factor count must be in 1..{MAX_MATRIX_FACTORS}, got {n}"
        )
    _require_nonzero_factors(factors)
    products = tree_products(factors)
    if factors[0].backend == FLOAT:
        _require_representable(factors, products)
        flat = _entries_float(products)
    else:
        inverses = [p.inverse() for p in products]
        flat = [inv * p for inv in inverses for p in products]
    return AssociatorMatrix(n, tuple(products), flat)


def _entries_float(products: list[Octonion]):
    """Batched float path, bit for bit the scalar formulas run on columns.
    The factors are nonzero, so a product whose squared norm is 0 or not
    finite left the binary64 range: NonFiniteError names its 1-based order."""
    from . import kernels

    p = kernels.from_octonions(products)
    for k, n2 in enumerate(kernels.norm_squared(p).tolist(), start=1):
        if not 0.0 < n2 < math.inf:
            raise _norm_range_error(n2, f"the product under order {k}")
    flat = kernels.pairwise_products(kernels.inverse(p), p)
    flat.flags.writeable = False
    return flat


def verify_matrix(matrix: AssociatorMatrix, tolerance: Scalar | None = None) -> tuple[bool, bool]:
    """The matrix's two invariants: ``(diagonal_ok, symmetry_ok)``.

    Whether every diagonal entry equals 1, and every entry (j, i) equals the
    conjugate of entry (i, j), each compared as `Octonion.equals` compares
    at `resolve_tolerance` of the matrix's backend and ``tolerance``: on
    exact that is ``==``, structural equality of reduced values.
    """
    tolerance = resolve_tolerance(matrix.products[0].backend, tolerance)
    size, flat = matrix.size, matrix.flat
    if not isinstance(flat, list):
        from . import kernels

        return kernels.conversion_verdicts(flat, size, tolerance)
    one = Octonion.one(EXACT)
    diagonal_ok = all(flat[i * size + i] == one for i in range(size))
    symmetry_ok = all(
        flat[j * size + i] == flat[i * size + j].conjugate()
        for i in range(size)
        for j in range(size)
    )
    return diagonal_ok, symmetry_ok


def _octonions(matrix: AssociatorMatrix, start: int, stop: int) -> list[Octonion]:
    """``matrix.flat[start:stop]`` as octonions: the exact list as it is, a
    float slice wrapped one entry at a time."""
    entries = matrix.flat[start:stop]
    if matrix.products[0].backend == EXACT:
        return entries
    return [_new(v, None) for v in entries.tolist()]


def _row_texts(matrix: AssociatorMatrix, machine: bool):
    """Each matrix row's cell texts, as `format_coefficients` (``machine``)
    or `format_octonion` writes them.  A float machine row is one
    `format_float_rows` pass; every other row renders `_octonions` one
    entry at a time, so the float text table never loads orjson."""
    from .textform import format_coefficients, format_float_rows, format_octonion

    size = matrix.size
    float_rows = machine and matrix.products[0].backend == FLOAT
    render = format_coefficients if machine else format_octonion
    for first in range(0, size * size, size):
        if float_rows:
            yield format_float_rows(matrix.flat[first:first + size])
        else:
            yield list(map(render, _octonions(matrix, first, first + size)))


def format_matrix_text(matrix: AssociatorMatrix) -> str:
    """Aligned plain-text table of the matrix entries."""
    return "\n".join(_text_lines(matrix))


def _text_lines(matrix: AssociatorMatrix):
    """The lines of `format_matrix_text`, for the caller to write one by one:
    the column widths need every cell, but the table is never joined."""
    cells = list(_row_texts(matrix, machine=False))
    widths = [max(map(len, column)) for column in zip(*cells)]
    for i, row in enumerate(cells, start=1):
        padded = "   ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        yield f"[{i}] {padded}"


def format_matrix_machine(matrix: AssociatorMatrix) -> str:
    """One line per entry: ``i<TAB>j<TAB>coefficients`` (1-based indices)."""
    return "\n".join(_machine_blocks(matrix))


def _machine_blocks(matrix: AssociatorMatrix):
    """The lines of `format_matrix_machine`, one block per matrix row: row
    i's lines joined by newlines, with no trailing newline.  The caller
    writes each block as it comes, so no more than one row's text is held."""
    size = matrix.size
    # Each row's lines are one % call over a template built once.
    cells = ["\t%d\t%%s" % j for j in range(1, size + 1)]
    for i, texts in enumerate(_row_texts(matrix, machine=True), start=1):
        prefix = str(i)
        yield (prefix + ("\n" + prefix).join(cells)) % tuple(texts)
