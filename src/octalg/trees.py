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

The bi-associativity check reads only the whole product's distinct
values, which `_distinct_products` folds over each span's distinct values,
not over its trees.  `tree_products` lists one value per tree for the
callers that list every order, and multiplies each distinct pair of a
span's operands once.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence, Union

from .core import (
    EXACT,
    FLOAT,
    Octonion,
    _Record,
    _MIN_NORMAL,
    _new,
    _in_range,
    _fold,
    _postorder,
    _range_error,
    resolve_tolerance,
)
from .errors import OutOfRangeError, ShapeMismatchError, ZeroInverseError

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786)

MAX_ENUMERATE_FACTORS = 12
MAX_MATRIX_FACTORS = 8


class Leaf(_Record):
    __slots__ = ("position",)  # int: 1-based factor index


class Node(_Record):
    __slots__ = ("left", "right")  # ProductTree, ProductTree
    _children = ("left", "right")


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


@lru_cache(maxsize=None)
def _labels(n: int) -> tuple:
    labels = _span_fold([f"x{k}" for k in range(1, n + 1)], _pairwise("({}*{})".format))
    # Every label but a lone leaf's carries one pair of outer parentheses.
    return tuple(labels if n == 1 else [label[1:-1] for label in labels])


def _tree_labels(n: int) -> list[str]:
    """`render_tree` of every tree of `enumerate_trees`, in the same order:
    a new list of the labels, which are folded once per n and cached."""
    return list(_labels(n))


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
    text = _fold(tree, _tree_text)
    return text if isinstance(tree, Leaf) else text[1:-1]


def _tree_text(t, *operands) -> str:
    """`render_tree`'s rule: ``xk`` for leaf k, and a node's two operand
    texts joined by ``*`` inside one pair of parentheses."""
    if operands:
        return "(%s*%s)" % operands
    return f"x{t.position}"


def evaluate(tree: ProductTree, factors: Sequence[Octonion]) -> Octonion:
    """Evaluate the product of ``factors`` in the order the tree encodes."""
    if leaf_positions(tree) != list(range(1, len(factors) + 1)):
        raise ShapeMismatchError(
            f"tree leaves must be positions 1..{len(factors)} in order"
        )

    def value(t, *operands):
        if operands:
            return operands[0] * operands[1]
        return factors[t.position - 1]

    return _fold(tree, value)


def _distinct_products(factors: Sequence[Octonion]) -> list[Octonion]:
    """The distinct products of ``factors`` over every tree, in the order
    the canonical trees first reach them.

    Each span keeps only its distinct products: for each split, each left
    value is multiplied by each right value once, and equal products are
    kept as one, the first made.  Pairs are visited split by split in
    row-major order, which is the order the canonical trees first reach
    them, since each sub-span's values are in that order too; so the first
    value is the product under the first tree.
    """

    def join(splits):
        # A dict keeps the first of equal keys, and its keys in insertion order.
        return list(dict.fromkeys(a * b for lefts, rights in splits for a in lefts for b in rights))

    return _span_fold(factors, join)


def tree_products(factors: Sequence[Octonion]) -> list[Octonion]:
    """The product of ``factors`` under every tree of `enumerate_trees`, in
    the same canonical order.

    Each span lists one product per tree, and multiplies each pair of
    operand objects once; equal products of a span are one shared object
    (safe: an Octonion is immutable), so the spans above see them as one
    operand.  Generic factors merge nothing and cost one multiplication per
    tree of each span; an exact word in two generators, whose every span
    has a single value (Artin's theorem), costs (n**3 - n) / 6.

    Every product is computed with the same operands as `evaluate` would
    use, so float results agree with it bit for bit.  Sharing by equality
    keeps that: of equal floats only +0.0 and -0.0 differ in bits, and a
    product never holds -0.0, since each of its sums starts from +0.0; a
    NaN equals nothing, so a product holding one is never merged.

    A float product that is not `_in_range` of ``factors`` raises
    NonFiniteError for the first such order, "the product under order k".
    """
    _require_enumerable(len(factors))

    def join(splits):
        made, shared = {}, {}

        def product(a, b):
            pair = id(a), id(b)
            if pair not in made:
                p = a * b
                made[pair] = shared.setdefault(p, p)
            return made[pair]

        return _pairwise(product)(splits)

    products = _span_fold(factors, join)
    _require_representable(factors, enumerate(products, start=1))
    return products


def _require_nonzero_factors(factors: Sequence[Octonion]) -> None:
    for k, f in enumerate(factors, start=1):
        if not f:
            raise ZeroInverseError(f"factor {k} is zero; all factors must be invertible")


def _require_representable(factors: Sequence[Octonion], orders: Iterable) -> None:
    """NonFiniteError naming the first product of ``factors`` in ``orders``,
    ``(order, product)`` pairs with 1-based orders, that is not `_in_range`."""
    for k, p in orders:
        if not _in_range(p, factors):
            raise _range_error(f"the product under order {k}", p)


def generalized_associator(i: int, j: int, factors: Sequence[Octonion]) -> Octonion:
    """inverse(p_i) * p_j, where p_k is the product under the k-th canonical
    tree; multiplying p_i by the result gives p_j.

    A zero factor raises ZeroInverseError.  A float p_i or p_j that is not
    `_in_range` of ``factors`` raises NonFiniteError, "the product under
    order k" with k 1-based, before the inverse, which refuses a squared norm
    it cannot divide by.  The result, a unit-norm product of finite values,
    is then finite."""
    trees = enumerate_trees(len(factors))
    if not (0 <= i < len(trees) and 0 <= j < len(trees)):
        raise IndexError(
            f"tree indices must be in 0..{len(trees) - 1}, got ({i}, {j})"
        )
    _require_nonzero_factors(factors)
    p_i = evaluate(trees[i], factors)
    p_j = evaluate(trees[j], factors)
    _require_representable(factors, ((i + 1, p_i), (j + 1, p_j)))
    return p_i.inverse() * p_j


class AssociatorMatrix(_Record):
    """Every pairwise evaluation-order associator of one factor sequence.

    Entry (i, j) converts the product under tree i into the product under
    tree j: it is the ``a`` with ``products[i] * a == products[j]``, where
    ``products`` holds the `tree_products` of the factors.  The diagonal is
    1 and entry (j, i) is the conjugate of entry (i, j).

    ``flat`` holds the entries row-major, entry (i, j) at index
    ``i * size + j``: on float a read-only ``(size * size, 8)`` float64
    array, whose entries `entry` wraps one at a time, on exact a list of
    octonions.  The float array is the transpose of 8 contiguous
    coefficient planes, as `kernels.multiply` stores its products, so
    coefficient k of every entry is one contiguous ``(size, size)`` block.
    Equality is identity, since ``flat`` may be an array.
    """

    __slots__ = ("n", "products", "flat")  # int, tuple of Octonion, see above
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def size(self) -> int:
        return len(self.products)

    def entry(self, i: int, j: int) -> Octonion:
        size = self.size
        if not (0 <= i < size and 0 <= j < size):
            raise IndexError(f"matrix indices must be in 0..{size - 1}, got ({i}, {j})")
        entry = self.flat[i * size + j]
        return entry if isinstance(self.flat, list) else _new(entry.tolist(), None)


def associator_matrix(factors: Sequence[Octonion]) -> AssociatorMatrix:
    """All pairwise order-conversion factors of ``factors``, from their
    `tree_products`.  A factor count outside 1..MAX_MATRIX_FACTORS or a zero
    factor is refused before any product.  On float, `tree_products`
    refuses a product that left the binary64 range, and a squared norm of
    one that is 0, subnormal or not finite is refused after the products."""
    n = len(factors)
    if not 1 <= n <= MAX_MATRIX_FACTORS:
        raise OutOfRangeError(
            f"matrix factor count must be in 1..{MAX_MATRIX_FACTORS}, got {n}"
        )
    _require_nonzero_factors(factors)
    products = tree_products(factors)
    if factors[0].backend == FLOAT:
        flat = _entries_float(products)
    else:
        inverses = [p.inverse() for p in products]
        flat = [inv * p for inv in inverses for p in products]
    return AssociatorMatrix(n, tuple(products), flat)


def _entries_float(products: list[Octonion]):
    """Batched float path, bit for bit the scalar formulas run on columns.
    The factors are nonzero, so a product whose squared norm is 0, subnormal
    or not finite left the normal binary64 range, as `Octonion.inverse`
    refuses it: NonFiniteError names its 1-based order."""
    from . import kernels

    p = kernels.from_octonions(products)
    for k, n2 in enumerate(kernels.norm_squared(p).tolist(), start=1):
        if not _MIN_NORMAL <= n2 < math.inf:
            raise _range_error(f"the squared norm of the product under order {k}", n2)
    flat = kernels.pairwise_products(kernels.inverse(p), p)
    flat.flags.writeable = False
    return flat


def verify_matrix(matrix: AssociatorMatrix, tolerance: float | None = None) -> tuple[bool, bool]:
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
    # Each pair once, the diagonal included: conjugation is an involution.
    symmetry_ok = all(
        flat[j * size + i] == flat[i * size + j].conjugate()
        for i in range(size)
        for j in range(i, size)
    )
    return diagonal_ok, symmetry_ok


def _texts(values, machine: bool) -> list[str]:
    """Each of ``values`` as `format_coefficients` (``machine``) or
    `format_octonion` writes it.  A list of octonions renders one value at a
    time; a float64 ``(m, 8)`` array takes its tokens from one
    `format_float_rows` pass, and the text format writes each row's tokens
    by the term rule, `textform._term_text`."""
    from .textform import _term_text, format_coefficients, format_float_rows, format_octonion

    if isinstance(values, list):
        return list(map(format_coefficients if machine else format_octonion, values))
    cells = format_float_rows(values)
    return cells if machine else [_term_text(cell.split(",")) for cell in cells]


def _product_texts(matrix: AssociatorMatrix, machine: bool) -> list[str]:
    """The `_texts` of ``matrix.products``: on float, of one array of them,
    stacked as `_entries_float` stacks them."""
    if isinstance(matrix.flat, list):
        return _texts(list(matrix.products), machine)
    from . import kernels

    return _texts(kernels.from_octonions(matrix.products), machine)


def _row_texts(matrix: AssociatorMatrix, machine: bool):
    """Each matrix row's cell texts: the `_texts` of its slice of
    ``matrix.flat``, so every float row, in both formats, is one
    `format_float_rows` pass."""
    size = matrix.size
    for first in range(0, size * size, size):
        yield _texts(matrix.flat[first:first + size], machine)


def format_matrix_text(matrix: AssociatorMatrix) -> str:
    """Aligned plain-text table of the matrix entries."""
    return "\n".join(_text_lines(matrix))


def _text_lines(matrix: AssociatorMatrix):
    """The lines of `format_matrix_text`, for the caller to write one by one:
    the column widths need every cell, but the table is never joined.  Until
    the widths are known, each row's cells are held as one string, joined by
    a tab, which no cell holds."""
    rows, widths = [], [0] * matrix.size
    for texts in _row_texts(matrix, machine=False):
        widths = list(map(max, widths, map(len, texts)))
        rows.append("\t".join(texts))
    for i, row in enumerate(rows, start=1):
        padded = "   ".join(map(str.ljust, row.split("\t"), widths)).rstrip()
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
