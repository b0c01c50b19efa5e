"""Randomized identity suite backing the ``check`` subcommand.

Every identity here is a theorem of the algebra, so on the exact backend a
reported failure always means an implementation bug.  On the float backend
the comparison tolerance is scaled by the magnitude of the values being
compared, because intermediate products of several octonions grow well
beyond the input coefficients and carry proportional roundoff.

Each identity makes each of its own sides once in a case: ``x*y`` and
``y*x`` for both commutator conversions, ``x*x`` for both alternative laws,
``x*y`` for the associating triple of bracket duality.  No identity reuses a
product made inside a bracket function, so a bracket that built it wrong
cannot pass by sharing it.  The four-variable associator identity makes its
shared subproducts once, in `brackets._schafer_sides`, and compares the two
sides that `schafer_residual` is the difference of, with ``==`` on exact and
scaled by both sides on float: one path on both backends.  That identity
(``schafer-identity``) is Teichmüller's: it holds for every bilinear
product, so it tests ``+``, ``-``, the additive associator and float
rounding, never the multiplication table, which the other identities test.

Bi-associativity compares each distinct product of a word, over all of
its evaluation orders, once: not one product per order.

Cases run sequentially in seed order; each identity derives its own seed
from (seed, identity name) so the streams stay independent of list order.
"""

from __future__ import annotations

import random

from .brackets import (
    _schafer_sides,
    additive_commutator,
    expand_word,
    multiplicative_associator,
    multiplicative_commutator,
)
from .core import EXACT, Octonion, _eq, _in_range, _Record, resolve_tolerance
from .sampling import DEFAULT_SEED, random_octonion, random_word
from .trees import _distinct_products


class CheckReport(_Record):
    """One identity's outcome: compared by fields, but mutable, and so
    unhashable."""

    __slots__ = ("name", "cases", "failures", "first_failure")  # str, int, int, str or None
    _defaults = (None,)
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    @property
    def passed(self) -> int:
        return self.cases - self.failures

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _check_product_conversion(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend, nonzero=True) for _ in range(3))
    a = multiplicative_associator(x, y, z)
    if not _eq(((x * y) * z) * a, x * (y * z), tol):
        return f"((x*y)*z)*a != x*(y*z) for x={x}, y={y}, z={z}"
    return None


def _check_conjugate_conversion(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend, nonzero=True) for _ in range(3))
    a = multiplicative_associator(x, y, z)
    if not _eq((x * y) * z, (x * (y * z)) * a.conjugate(), tol):
        return f"(x*y)*z != (x*(y*z))*a~ for x={x}, y={y}, z={z}"
    return None


def _check_inverse_of_product(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend, nonzero=True) for _ in range(3))
    lhs = ((x * y) * z).inverse()
    rhs = z.inverse() * (y.inverse() * x.inverse())
    if not _eq(lhs, rhs, tol):
        return f"((x*y)*z)^-1 != z^-1*(y^-1*x^-1) for x={x}, y={y}, z={z}"
    return None


def _check_associator_forms(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend, nonzero=True) for _ in range(3))
    direct = multiplicative_associator(x, y, z)
    short = ((x * y) * z).inverse() * (x * (y * z))
    if not _eq(direct, short, tol):
        return f"associator formula != ((x*y)*z)^-1*(x*(y*z)) for x={x}, y={y}, z={z}"
    return None


def _check_commutator_conversion(rng, backend, tol):
    x, y = (random_octonion(rng, backend, nonzero=True) for _ in range(2))
    c = multiplicative_commutator(x, y)
    xy, yx = x * y, y * x
    if not _eq(xy * c, yx, tol):
        return f"(x*y)*c != y*x for x={x}, y={y}"
    if not _eq(xy, yx * c.conjugate(), tol):
        return f"x*y != (y*x)*c~ for x={x}, y={y}"
    return None


def _check_unit_norm(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend, nonzero=True) for _ in range(3))
    n_assoc = multiplicative_associator(x, y, z).norm_sq()
    if not _eq(n_assoc, 1, tol):
        return f"norm_sq(associator) = {n_assoc} != 1"
    n_comm = multiplicative_commutator(x, y).norm_sq()
    if not _eq(n_comm, 1, tol):
        return f"norm_sq(commutator) = {n_comm} != 1"
    return None


def _check_schafer(rng, backend, tol):
    a, x, y, z = (random_octonion(rng, backend) for _ in range(4))
    # Side against side, so a float check scales by the sides, not by the
    # near-zero residual.
    lhs, rhs = _schafer_sides(a, x, y, z)
    if not _eq(lhs, rhs, tol):
        return f"schafer residual {lhs - rhs} != 0 for a={a}, x={x}, y={y}, z={z}"
    return None


def _check_biassociativity(rng, backend, tol):
    """Every evaluation order of a random two-generator word gives one
    product (Artin's theorem), compared on the word's distinct products:
    every order's product is one of them, and the first order's is the
    first.  That first product must be `_in_range` of the word's factors,
    and equal every other; an exact word has only the one."""
    x = random_octonion(rng, backend, nonzero=True)
    y = random_octonion(rng, backend, nonzero=True)
    word = random_word(rng)
    factors = expand_word(word, x, y)
    reference, *others = _distinct_products(factors)
    if not (_in_range(reference, factors) and all(_eq(reference, o, tol) for o in others)):
        return f"word {word} differs between orders for x={x}, y={y}"
    return None


def _check_norm_multiplicativity(rng, backend, tol):
    x, y = (random_octonion(rng, backend) for _ in range(2))
    if not _eq((x * y).norm_sq(), x.norm_sq() * y.norm_sq(), tol):
        return f"norm_sq(x*y) != norm_sq(x)*norm_sq(y) for x={x}, y={y}"
    return None


def _check_alternative_laws(rng, backend, tol):
    x, y = (random_octonion(rng, backend) for _ in range(2))
    xx = x * x
    if not _eq(x * (x * y), xx * y, tol):
        return f"x*(x*y) != (x*x)*y for x={x}, y={y}"
    if not _eq((y * x) * x, y * xx, tol):
        return f"(y*x)*x != y*(x*x) for x={x}, y={y}"
    return None


def _check_moufang(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend) for _ in range(3))
    if not _eq(((x * y) * x) * z, x * (y * (x * z)), tol):
        return f"((x*y)*x)*z != x*(y*(x*z)) for x={x}, y={y}, z={z}"
    return None


def _check_bracket_duality(rng, backend, tol):
    x, y = (random_octonion(rng, backend, nonzero=True) for _ in range(2))
    one = Octonion.one(backend)
    zero = Octonion.zero(backend)
    add = additive_commutator(x, y)
    mul = multiplicative_commutator(x, y)
    if _eq(add, zero, tol) != _eq(mul, one, tol):
        return f"commutator duality broken for x={x}, y={y}"
    # z in the subalgebra generated by x and y makes the triple associate.
    xy = x * y
    z = xy * x
    if not _eq(x * (y * z), xy * z, tol):
        return f"expected associating triple, x={x}, y={y}"
    if not _eq(multiplicative_associator(x, y, z), one, tol):
        return f"multiplicative associator not 1 on associating triple, x={x}, y={y}"
    return None


IDENTITY_CHECKS = (
    ("product-conversion", _check_product_conversion),
    ("conjugate-conversion", _check_conjugate_conversion),
    ("inverse-of-product", _check_inverse_of_product),
    ("associator-forms", _check_associator_forms),
    ("commutator-conversion", _check_commutator_conversion),
    ("unit-norm", _check_unit_norm),
    ("schafer-identity", _check_schafer),
    ("bi-associativity", _check_biassociativity),
    ("norm-multiplicativity", _check_norm_multiplicativity),
    ("alternative-laws", _check_alternative_laws),
    ("moufang", _check_moufang),
    ("bracket-duality", _check_bracket_duality),
)

CHECK_NAMES = tuple(name for name, _ in IDENTITY_CHECKS)


def run_checks(
    cases: int = 100,
    seed: int = DEFAULT_SEED,
    backend: str = EXACT,
    tolerance=None,
    names=None,
) -> list[CheckReport]:
    """Run the identity suite and return one report per identity: ``cases``
    cases each, at least 1, compared at `resolve_tolerance` of ``backend`` and
    ``tolerance``."""
    tolerance = resolve_tolerance(backend, tolerance)
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    selected = IDENTITY_CHECKS
    if names is not None:
        names = set(names)
        unknown = names.difference(CHECK_NAMES)
        if unknown:
            raise ValueError(
                f"unknown identity names {', '.join(sorted(map(repr, unknown)))}; "
                f"known: {', '.join(CHECK_NAMES)}"
            )
        selected = [(name, func) for name, func in IDENTITY_CHECKS if name in names]
    reports = []
    for name, func in selected:
        rng = random.Random(f"{seed}:{name}")
        failures = 0
        first_failure = None
        for _ in range(cases):
            problem = func(rng, backend, tolerance)
            if problem is not None:
                failures += 1
                if first_failure is None:
                    first_failure = problem
        reports.append(CheckReport(name, cases, failures, first_failure))
    return reports
