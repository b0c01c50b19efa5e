"""Randomized identity suite backing the ``check`` subcommand.

Every identity here is a theorem of the algebra, so on the exact backend a
reported failure always means an implementation bug.  On the float backend
the comparison tolerance is scaled by the magnitude of the values being
compared, because intermediate products of several octonions grow well
beyond the input coefficients and carry proportional roundoff.

Cases run sequentially in seed order; each identity derives its own seed
from (seed, identity name) so the streams stay independent of list order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .brackets import (
    additive_associator,
    additive_commutator,
    expand_word,
    multiplicative_associator,
    multiplicative_commutator,
    schafer_residual,
)
from .core import DEFAULT_FLOAT_TOLERANCE, EXACT, FLOAT, Octonion
from .sampling import DEFAULT_SEED, random_octonion, random_word
from .trees import tree_products


@dataclass
class CheckReport:
    name: str
    cases: int
    failures: int
    first_failure: str | None = None

    @property
    def passed(self) -> int:
        return self.cases - self.failures

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _scaled_tolerance(tolerance, *values: Octonion):
    scale = 1.0
    for v in values:
        scale = max(scale, max(abs(c) for c in v.c))
    return tolerance * scale


def _eq(a: Octonion, b: Octonion, tolerance, *scale_by: Octonion) -> bool:
    """Compare a and b, on the float backend at ``tolerance`` times the
    largest coefficient of ``scale_by`` (default: of a and b).  An inf
    coefficient makes the scaled tolerance non-finite and the values unequal."""
    if a.backend == EXACT:
        return a == b
    scaled = _scaled_tolerance(tolerance, *(scale_by or (a, b)))
    return math.isfinite(scaled) and a.equals(b, scaled)


def _scalar_eq(a, b, tolerance) -> bool:
    if not isinstance(a, float):
        return a == b
    diff = abs(a - b)
    return math.isfinite(diff) and diff <= tolerance * max(1.0, abs(a), abs(b))


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
    if not _eq((x * y) * c, y * x, tol):
        return f"(x*y)*c != y*x for x={x}, y={y}"
    if not _eq(x * y, (y * x) * c.conjugate(), tol):
        return f"x*y != (y*x)*c~ for x={x}, y={y}"
    return None


def _check_unit_norm(rng, backend, tol):
    x, y, z = (random_octonion(rng, backend, nonzero=True) for _ in range(3))
    one = 1.0 if backend == FLOAT else 1
    n_assoc = multiplicative_associator(x, y, z).norm_sq()
    if not _scalar_eq(n_assoc, one, tol):
        return f"norm_sq(associator) = {n_assoc} != 1"
    n_comm = multiplicative_commutator(x, y).norm_sq()
    if not _scalar_eq(n_comm, one, tol):
        return f"norm_sq(commutator) = {n_comm} != 1"
    return None


def _check_schafer(rng, backend, tol):
    a, x, y, z = (random_octonion(rng, backend) for _ in range(4))
    residual = schafer_residual(a, x, y, z)
    zero = Octonion.zero(backend)
    if backend == EXACT:
        ok = residual == zero
    else:
        # Scale against the identity's two sides, not the near-zero residual.
        lhs = a * additive_associator(x, y, z) + additive_associator(a, x, y) * z
        ok = _eq(residual, zero, tol, lhs, lhs - residual)
    if not ok:
        return f"schafer residual {residual} != 0 for a={a}, x={x}, y={y}, z={z}"
    return None


def _check_biassociativity(rng, backend, tol):
    x = random_octonion(rng, backend, nonzero=True)
    y = random_octonion(rng, backend, nonzero=True)
    word = random_word(rng)
    reference, *others = tree_products(expand_word(word, x, y))
    for other in others:
        if not _eq(reference, other, tol):
            return f"word {word} differs between orders for x={x}, y={y}"
    return None


def _check_norm_multiplicativity(rng, backend, tol):
    x, y = (random_octonion(rng, backend) for _ in range(2))
    if not _scalar_eq((x * y).norm_sq(), x.norm_sq() * y.norm_sq(), tol):
        return f"norm_sq(x*y) != norm_sq(x)*norm_sq(y) for x={x}, y={y}"
    return None


def _check_alternative_laws(rng, backend, tol):
    x, y = (random_octonion(rng, backend) for _ in range(2))
    if not _eq(x * (x * y), (x * x) * y, tol):
        return f"x*(x*y) != (x*x)*y for x={x}, y={y}"
    if not _eq((y * x) * x, y * (x * x), tol):
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
    z = (x * y) * x
    if not z:
        return None
    if not _eq(x * (y * z), (x * y) * z, tol):
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
    """Run the identity suite and return one report per identity."""
    if tolerance is None:
        tolerance = DEFAULT_FLOAT_TOLERANCE if backend == FLOAT else 0
    selected = IDENTITY_CHECKS if names is None else [
        (name, func) for name, func in IDENTITY_CHECKS if name in set(names)
    ]
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
