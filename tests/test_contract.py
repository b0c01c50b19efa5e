"""Library contract on float operands across the whole binary64 range.

Each bracket, `tree_products` and `generalized_associator` either returns
octonions whose coefficients are all finite, or refuses the operands with
NonFiniteError or ZeroInverseError: it never hands back NaN or inf.  The
operands' coefficients are m * 10**k with m in -9..9 and k in -300..300, so
products overflow, underflow and cancel.  Draws are derandomized, so the
verdict does not depend on the example database or on earlier runs.
"""

import math

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
from octalg.trees import CATALAN, generalized_associator, tree_products

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
