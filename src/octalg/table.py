"""The multiplication table, derived by the Cayley-Dickson construction,
and the writer of the generated module `octalg._generated`.

The table is not hardcoded.  It is derived here by doubling the scalars
three times (reals -> complex -> quaternions -> octonions) with the pair
rule

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c))

applied to signed basis units, one doubling at a time: each product of
units at one size is read off one product of units at half the size.  The
basis products are thus a consequence of the construction rather than a
64-entry constant to trust; `cayley_dickson_product`, the same rule
recursing on whole coefficient tuples, stays as an independent check.
Basis order: ``e0`` is the real unit, ``e1..e3`` span the quaternion
sublevel, ``e4..e7`` the doubled half.

The product the package runs is not interpreted from the table per call:
`generated_source` writes it as straight-line source of 8 signed sums,
into ``src/octalg/_generated.py`` beside the record constructors, and
``python tools/generate.py`` writes that file.  No command of the command
line imports this module; the tests derive and check the table, and
require the committed module to equal what `generated_source` writes.
"""

from __future__ import annotations

from typing import Iterable

# Three doublings of the reals.  The table does not import the arithmetic
# of `core`, whose product is generated from it, so it can always be
# derived and written, even when the committed module is stale.
DIM = 8


def _cd_conjugate(v: tuple) -> tuple:
    return (v[0],) + tuple(-a for a in v[1:])


def _cd_multiply(u: tuple, v: tuple) -> tuple:
    """Multiply two coefficient tuples of equal power-of-two length by the
    doubling rule, recursing down to plain scalar multiplication."""
    n = len(u)
    if n == 1:
        return (u[0] * v[0],)
    h = n // 2
    a, b = u[:h], u[h:]
    c, d = v[:h], v[h:]
    ac = _cd_multiply(a, c)
    db = _cd_multiply(_cd_conjugate(d), b)
    da = _cd_multiply(d, a)
    bc = _cd_multiply(b, _cd_conjugate(c))
    return tuple(p - q for p, q in zip(ac, db)) + tuple(p + q for p, q in zip(da, bc))


def _derive_table() -> tuple[tuple, tuple]:
    # units[p, q] = (k, s) means e_p * e_q = s * e_k.  At size 2h the pair
    # rule sees e_p = (e_p, 0) and e_{h+q} = (0, e_q) for p, q < h, so each
    # product of units is one half-size product, with conj(e_q) = c * e_q:
    #   e_p     * e_q     = (e_p e_q, 0)
    #   e_p     * e_{h+q} = (0, e_q e_p)
    #   e_{h+p} * e_q     = (0, e_p conj(e_q))
    #   e_{h+p} * e_{h+q} = (-conj(e_q) e_p, 0)
    units = {(0, 0): (0, 1)}  # the reals: e0 * e0 = e0
    h = 1
    while h < DIM:
        doubled = {}
        for (p, q), (k, s) in units.items():
            k_qp, s_qp = units[q, p]
            c = 1 if q == 0 else -1
            doubled[p, q] = (k, s)
            doubled[p, h + q] = (h + k_qp, s_qp)
            doubled[h + p, q] = (h + k, s * c)
            doubled[h + p, h + q] = (k_qp, -c * s_qp)
        units = doubled
        h *= 2
    index = tuple(tuple(units[i, j][0] for j in range(DIM)) for i in range(DIM))
    sign = tuple(tuple(units[i, j][1] for j in range(DIM)) for i in range(DIM))
    return index, sign


_MUL_INDEX, _MUL_SIGN = _derive_table()


def _table_selfcheck() -> None:
    # e0 must act as a two-sided identity, imaginary units must square to -1
    # and anticommute pairwise, and every row must be a signed permutation.
    # A violation means the doubling rule above was transcribed wrong.
    for j in range(DIM):
        assert _MUL_INDEX[0][j] == j and _MUL_SIGN[0][j] == 1
        assert _MUL_INDEX[j][0] == j and _MUL_SIGN[j][0] == 1
    for i in range(1, DIM):
        assert _MUL_INDEX[i][i] == 0 and _MUL_SIGN[i][i] == -1
        for j in range(1, DIM):
            if i != j:
                assert _MUL_INDEX[i][j] == _MUL_INDEX[j][i] != 0
                assert _MUL_SIGN[i][j] == -_MUL_SIGN[j][i]
    for i in range(DIM):
        assert sorted(_MUL_INDEX[i]) == list(range(DIM))


_table_selfcheck()


def structure_table() -> tuple[tuple, tuple]:
    """Return the derived basis-product table as (index, sign) row tuples.

    ``e_i * e_j == sign[i][j] * e_{index[i][j]}``.
    """
    return _MUL_INDEX, _MUL_SIGN


def cayley_dickson_product(u: Iterable, v: Iterable) -> tuple:
    """Multiply two length-8 coefficient tuples directly by the recursive
    doubling rule, bypassing the derived table.  Slow; used to cross-check
    that the table-driven product agrees with the construction."""
    u, v = tuple(u), tuple(v)
    if len(u) != DIM or len(v) != DIM:
        raise ValueError("expected length-8 coefficient tuples")
    return _cd_multiply(u, v)


def _product_terms() -> tuple:
    """For each output coefficient k, its signed terms ``(sign, i, j)`` of
    ``a_i * b_j``, in i order: one per table entry with ``index[i][j] == k``."""
    terms = [[] for _ in range(DIM)]
    for i in range(DIM):
        for j in range(DIM):
            terms[_MUL_INDEX[i][j]].append((_MUL_SIGN[i][j], i, j))
    return tuple(tuple(t) for t in terms)


def _product_source(terms) -> str:
    """The source of ``_product(a, b, z)`` for ``terms``: straight-line code
    that unpacks both 8-sequences and returns the 8 sums ``z ± a_i*b_j ± ...``,
    each evaluated left to right in the order of its terms."""
    lines = [
        "def _product(a, b, z):",
        f"    {', '.join(f'a{i}' for i in range(DIM))} = a",
        f"    {', '.join(f'b{j}' for j in range(DIM))} = b",
        "    return [",
    ]
    for k, row in enumerate(terms):
        body = "".join(f" {'+' if sign == 1 else '-'} a{i}*b{j}" for sign, i, j in row)
        lines.append(f"        z{body},  # e{k}")
    lines.append("    ]")
    return "\n".join(lines) + "\n"


def _init_source(arity: int) -> str:
    """The source of ``_init<arity>(self, f0, f1, ...)``: straight-line code
    that calls ``_set0(self, f0)``, ``_set1(self, f1)`` and so on."""
    lines = [f"def _init{arity}(self, {', '.join(f'f{i}' for i in range(arity))}):"]
    lines += [f"    _set{i}(self, f{i})" for i in range(arity)]
    return "\n".join(lines) + "\n"


def generated_source() -> str:
    """The text of ``src/octalg/_generated.py``: `_product` from the derived
    table, then the code of `core._Record`'s constructors, for records of 1
    to 4 fields, the most any record has."""
    header = '"""Generated by ``python tools/generate.py`` from `octalg.table`; do not edit."""\n'
    parts = [header, _product_source(_product_terms())]
    return "\n\n".join(parts + [_init_source(arity) for arity in range(1, 5)])
