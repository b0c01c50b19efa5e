"""Contracts that generated inputs must keep, on both backends.

Library contract: each bracket, `tree_products` and `generalized_associator`
either returns octonions whose coefficients are all finite, or refuses the
operands with NonFiniteError or ZeroInverseError: it never hands back NaN
or inf.  The operands' coefficients are m * 10**k with m in -9..9 and k in
-300..300, so products overflow, underflow and cancel.

Exact oracle: each binary64 operand is converted exactly to rationals, and
the float result of each multiplicative construction must lie within 1e-12
of the exact result's largest coefficient.

CLI contract: argv built from literals of 1 to 400 digits runs `cli.main`
in process; no exception escapes, the exact backend never exits 3, an exit
of 1 or 2 prints nothing on stdout, and no printed coefficient is inf or
nan.

Draws are derandomized, so the verdict does not depend on the example
database or on earlier runs.
"""

import contextlib
import io
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octalg import NonFiniteError, Octonion, ZeroInverseError
from octalg.brackets import (
    additive_associator,
    additive_commutator,
    multiplicative_associator,
    multiplicative_commutator,
)
from octalg.cli import main
from octalg.trees import CATALAN, associator_matrix, generalized_associator, tree_products

contract = settings(derandomize=True, database=None, deadline=None, max_examples=200)

wide_coefficients = st.builds(
    lambda m, k: m * 10.0**k, st.integers(-9, 9), st.integers(-300, 300)
)
wide_octonions = st.tuples(*[wide_coefficients] * 8).map(Octonion)
wide_factors = st.lists(wide_octonions, min_size=1, max_size=5)


def _finite_or_refused(call, *args):
    """The values ``call(*args)`` returns, each with only finite
    coefficients; ``[]`` when it refuses the operands."""
    try:
        result = call(*args)
    except (NonFiniteError, ZeroInverseError):
        return []
    values = result if isinstance(result, list) else [result]
    for value in values:
        assert all(map(math.isfinite, value.c)), (args, value)
    return values


@pytest.mark.parametrize("bracket", [additive_commutator, multiplicative_commutator])
@contract
@given(wide_octonions, wide_octonions)
def test_commutators_are_finite_or_refused(bracket, x, y):
    _finite_or_refused(bracket, x, y)


@pytest.mark.parametrize("bracket", [additive_associator, multiplicative_associator])
@contract
@given(wide_octonions, wide_octonions, wide_octonions)
def test_associators_are_finite_or_refused(bracket, x, y, z):
    _finite_or_refused(bracket, x, y, z)


@contract
@given(wide_factors)
def test_tree_products_are_finite_or_refused(factors):
    products = _finite_or_refused(tree_products, factors)
    assert len(products) in (0, CATALAN[len(factors) - 1])


@contract
@given(wide_factors, st.data())
def test_generalized_associator_is_finite_or_refused(factors, data):
    orders = st.integers(0, CATALAN[len(factors) - 1] - 1)
    _finite_or_refused(generalized_associator, data.draw(orders), data.draw(orders), factors)


_HUGE = Octonion.from_real(1e200)
_E1 = Octonion.unit(1, "float")
_SPREAD = [Octonion.from_real(v) for v in (1e300, 1e10, 1e-300)]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: additive_associator(_HUGE, _HUGE, _HUGE),
         "the result is beyond the binary64 range"),
        (lambda: additive_commutator(_HUGE, _HUGE + _E1),
         "the result is beyond the binary64 range"),
        (lambda: tree_products(_SPREAD),
         "the product under order 2 is beyond the binary64 range"),
        (lambda: generalized_associator(0, 1, _SPREAD),
         "the product under order 2 is beyond the binary64 range"),
        (lambda: generalized_associator(1, 0, _SPREAD),
         "the product under order 2 is beyond the binary64 range"),
    ],
    ids=[
        "additive-associator", "additive-commutator", "tree-products",
        "generalized-associator-0-1", "generalized-associator-1-0",
    ],
)
def test_an_overflowed_result_is_refused(call, message):
    with pytest.raises(NonFiniteError) as info:
        call()
    assert str(info.value) == message


# -- exact oracle ----------------------------------------------------------

oracle = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# Octonions of magnitude 10**k, k in -60..60: coefficients m * 10**k with
# 1e-6 <= |m| < 10 or m = 0.
_mantissas = st.floats(-10, 10, exclude_min=True, exclude_max=True).map(
    lambda m: m if abs(m) >= 1e-6 else 0.0
)
oracle_octonions = st.builds(
    lambda k, ms: Octonion([m * 10.0**k for m in ms]),
    st.integers(-60, 60), st.lists(_mantissas, min_size=8, max_size=8),
)
oracle_factors = st.lists(oracle_octonions, min_size=1, max_size=4)

# The largest error allowed, relative to the exact result's largest |coefficient|.
ORACLE_BOUND = Fraction(1, 10**12)


def _exact(value: Octonion) -> Octonion:
    """``value``'s binary64 coefficients as exact rationals."""
    return Octonion([Fraction(c) for c in value.c])


def _assert_near_exact(result: Octonion, exact: Octonion, operands) -> None:
    """``result`` within `ORACLE_BOUND` of ``exact``, relative to its largest
    |coefficient|."""
    error = max(abs(Fraction(r) - e) for r, e in zip(result.c, exact.c))
    scale = max(map(abs, exact.c))
    assert error <= ORACLE_BOUND * scale, (operands, float(error / scale))


def _check_against_exact(call, *operands) -> None:
    """``call`` on the float ``operands`` and on their exact values: each
    float result near its exact one.  A float refusal is allowed; a zero
    operand is refused on both backends."""
    exact_operands = [
        [_exact(v) for v in op] if isinstance(op, list) else _exact(op) for op in operands
    ]
    try:
        results = call(*operands)
    except ZeroInverseError:
        with pytest.raises(ZeroInverseError):
            call(*exact_operands)
        return
    except NonFiniteError:
        return
    exact_results = call(*exact_operands)
    if not isinstance(results, list):
        results, exact_results = [results], [exact_results]
    for result, exact in zip(results, exact_results, strict=True):
        _assert_near_exact(result, exact, operands)


@oracle
@given(oracle_octonions)
def test_inverse_matches_exact(x):
    _check_against_exact(Octonion.inverse, x)


@oracle
@given(oracle_octonions, oracle_octonions)
def test_multiplicative_commutator_matches_exact(x, y):
    _check_against_exact(multiplicative_commutator, x, y)


@oracle
@given(oracle_octonions, oracle_octonions, oracle_octonions)
def test_multiplicative_associator_matches_exact(x, y, z):
    _check_against_exact(multiplicative_associator, x, y, z)


@oracle
@given(oracle_factors)
def test_tree_products_match_exact(factors):
    _check_against_exact(tree_products, factors)


def _matrix_entries(factors) -> list:
    matrix = associator_matrix(factors)
    return [matrix.entry(i, j) for i in range(matrix.size) for j in range(matrix.size)]


@oracle
@given(oracle_factors)
def test_matrix_entries_match_exact(factors):
    _check_against_exact(_matrix_entries, factors)


# -- CLI contract ------------------------------------------------------------

cli_contract = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# Zero counts: a few, so that float products often stay in range; counts
# near the binary64 limits, where a number, its square or its squared norm
# leaves the range; and any up to 380.
_ZEROS = st.integers(0, 2) | st.sampled_from([75, 150, 155, 160, 305, 308]) | st.integers(0, 380)


def _digits(head_digits="0123456789", zeros_first=False):
    """1 to 400 digits: up to 20 drawn from ``head_digits``, and `_ZEROS`
    zeros after them (a large number) or before them (a fractional part
    close to 0)."""
    return st.builds(
        lambda head, zeros: "0" * zeros + head if zeros_first else head + "0" * zeros,
        st.text(head_digits, min_size=1, max_size=20), _ZEROS,
    )


def _literals(backend):
    """Literals of `backend`: sums of up to 4 terms, each a number (an
    integer, a fraction or, on float, a decimal) and a unit, or a lone unit."""
    numbers = _digits() | st.builds("{}/{}".format, _digits(), _digits("123456789"))
    if backend == "float":
        numbers |= st.builds("{}.{}".format, _digits(), _digits(zeros_first=True))
    units = st.sampled_from([""] + [f"e{k}" for k in range(1, 8)])
    terms = st.builds("{}{}".format, numbers | st.just(""), units).filter(bool)
    signed = st.builds("{}{}".format, st.sampled_from([" + ", " - "]), terms)
    return st.builds(lambda first, rest: first + "".join(rest), terms, st.lists(signed, max_size=3))


def _eval(literals):
    """`eval` argv.  x, y and z are always bound; w, one name in ten, never
    is; and a further binding may rebind x or bind ``e1``, a reserved name:
    a usage error.  A factor is a name, a literal or a parenthesized
    product, with postfix operators; the expression is a product of 1 to 4
    factors."""
    postfix = st.sampled_from(["", "", "~", "^-1"])
    factors = st.recursive(
        st.sampled_from("xyz" * 3 + "w") | literals.map("({})".format),
        lambda inner: st.lists(st.builds(str.__add__, inner, postfix), min_size=2, max_size=3)
        .map(lambda product: "(" + "*".join(product) + ")"),
        max_leaves=4,
    )
    expressions = st.lists(st.builds(str.__add__, factors, postfix), min_size=1, max_size=4)
    lets = st.builds(
        lambda x, y, z, more: [f"x={x}", f"y={y}", f"z={z}", *more],
        literals, literals, literals,
        st.lists(st.builds("{}={}".format, st.sampled_from(["x", "e1"]), literals), max_size=1),
    )
    return st.builds(
        lambda expr, lets: ["eval", "*".join(expr), *[a for let in lets for a in ("--let", let)]],
        expressions, lets,
    )


def _operands(command, low, high, flags):
    """The argv of ``command`` on ``low`` to ``high`` literals, with one of ``flags``."""
    return lambda literals: st.builds(
        lambda operands, flag: [command, *operands, *flag],
        st.lists(literals, min_size=low, max_size=high), st.sampled_from(flags),
    )


_FLAVORS = [[], ["--additive"], ["--multiplicative"]]
_COMMANDS = (
    _eval,
    _operands("commutator", 2, 2, _FLAVORS),
    _operands("associator", 3, 3, _FLAVORS),
    _operands("orders", 1, 4, [[]]),
    _operands("orders", 1, 4, [["--matrix"]]),
)
# Each command on each backend, in each format.
argvs = st.one_of(
    st.builds(
        lambda argv, fmt, backend=backend: [*argv, "--backend", backend, "--format", fmt],
        command(_literals(backend)), st.sampled_from(["text", "machine"]),
    )
    for command in _COMMANDS
    for backend in ("exact", "float")
)

# Float argv that exit 3, each with the deviation measured when it was
# pinned: a check that fails on rounding alone.  None is known.
FLOAT_CHECK_FAILURES: dict[tuple[str, ...], float] = {}

_NOT_FINITE = re.compile(r"inf|nan", re.IGNORECASE)


@cli_contract
@given(argvs)
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 3:
        assert "float" in argv and tuple(argv) in FLOAT_CHECK_FAILURES, argv
    if code in (1, 2):
        assert out == "", argv
    assert not _NOT_FINITE.search(out), argv
