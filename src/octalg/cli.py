"""Command-line front end.

Subcommands:

* ``eval EXPR [--let name=OCTONION]...`` - parse and evaluate an expression
* ``commutator X Y [--additive|--multiplicative]``
* ``associator X Y Z [--additive|--multiplicative]`` - the multiplicative
  flavor also verifies both conversion identities on the result
* ``orders X1 X2 ... [--matrix]`` - every evaluation order of the product,
  optionally with the full order-conversion matrix
* ``check [--cases N] [--seed S]`` - run the randomized identity suite

Global flags (per subcommand): ``--backend exact|float``, ``--tolerance``
(float backend only), ``--format text|machine``.  Machine output is TSV:
``key<TAB>value`` lines, with octonions rendered as the 8 comma-separated
coefficients; matrix entries are ``i<TAB>j<TAB>coefficients`` lines with
1-based indices.

Exit codes: 0 success, 1 usage or syntax error, 2 evaluation error (zero
inverse, unbound variable, a float literal, result, product or squared
norm beyond the binary64 range), 3 identity-check failure, which the exact
backend should never produce.  A float result is never printed with a
coefficient that is not finite.  ``orders`` refuses a product of nonzero
factors that underflowed to 0; ``eval`` prints such a product as 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

# Only what parsing the command line needs is imported here: each command
# imports the modules it runs, so a process loads no more than its
# subcommand uses.
from .core import (
    DEFAULT_FLOAT_TOLERANCE,
    EXACT,
    FLOAT,
    Octonion,
    _eq,
    resolve_tolerance,
)
from .errors import (
    BackendMismatchError,
    NonFiniteError,
    UnboundVariableError,
    ZeroInverseError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EVAL = 2
EXIT_CHECK = 3

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; this tool reserves 2 for
    # evaluation errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--backend", choices=(EXACT, FLOAT), default=EXACT,
        help="scalar backend (default: exact rationals)",
    )
    common.add_argument(
        "--tolerance", type=float, default=None, metavar="T",
        help="comparison tolerance, float backend only "
        f"(default {DEFAULT_FLOAT_TOLERANCE:g})",
    )
    common.add_argument(
        "--format", choices=("text", "machine"), default="text", dest="fmt",
        help="output format",
    )

    parser = _Parser(
        prog="octalg",
        description="Octonion products, commutators, associators and "
        "evaluation-order conversion factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p_eval.add_argument("expr", help="expression, e.g. '(e1*e2)*e4' or 'x*y~'")
    p_eval.add_argument(
        "--let", action="append", default=[], metavar="NAME=OCTONION",
        help="bind a variable (repeatable)",
    )

    p_comm = sub.add_parser("commutator", parents=[common], help="commutator of two octonions")
    p_comm.add_argument("x")
    p_comm.add_argument("y")
    _flavor_flags(p_comm)

    p_assoc = sub.add_parser("associator", parents=[common], help="associator of three octonions")
    p_assoc.add_argument("x")
    p_assoc.add_argument("y")
    p_assoc.add_argument("z")
    _flavor_flags(p_assoc)

    p_orders = sub.add_parser(
        "orders", parents=[common], help="all evaluation orders of a product"
    )
    p_orders.add_argument("factors", nargs="+", metavar="FACTOR")
    p_orders.add_argument(
        "--matrix", action="store_true",
        help="also print the full order-conversion matrix",
    )

    p_check = sub.add_parser(
        "check", parents=[common], help="run the randomized identity suite"
    )
    p_check.add_argument("--cases", type=int, default=100, help="cases per identity")
    # Default None: sampling.DEFAULT_SEED, resolved when the suite runs.
    p_check.add_argument("--seed", type=int, default=None, help="random seed")

    return parser


def _flavor_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--multiplicative", dest="flavor", action="store_const",
        const="multiplicative", default="multiplicative",
        help="unit-norm conversion factor (default)",
    )
    group.add_argument(
        "--additive", dest="flavor", action="store_const", const="additive",
        help="difference bracket",
    )


def _is_finite(value: Octonion) -> bool:
    """Whether every coefficient of ``value`` is finite (always, on exact)."""
    return value.backend != FLOAT or all(map(math.isfinite, value.c))


def _emit_value(value: Octonion, fmt: str) -> None:
    from .textform import format_coefficients, format_octonion

    if not _is_finite(value):
        raise NonFiniteError("the result is beyond the binary64 range")
    if fmt == "machine":
        print(f"result\t{format_coefficients(value)}")
    else:
        print(format_octonion(value))


def _cmd_eval(args, tolerance) -> int:
    from .exprs import Environment, eval_expr, parse_with_info
    from .textform import parse_octonion

    env = Environment()
    for binding in args.let:
        name, sep, text = binding.partition("=")
        if not sep:
            raise ValueError(f"--let expects NAME=OCTONION, got {binding!r}")
        env.bind(name.strip(), parse_octonion(text, args.backend))
    expr, chains = parse_with_info(args.expr, args.backend)
    value = eval_expr(expr, env)
    _warn_defaulted_chains(chains, env, tolerance)
    _emit_value(value, args.fmt)
    return EXIT_OK


def _warn_defaulted_chains(chains, env, tolerance) -> None:
    from .exprs import eval_expr
    from .textform import format_octonion

    # Silent defaulting is a correctness hazard in a non-associative algebra:
    # always flag it, and cite both bracketings when they disagree.
    for factors in chains:
        print(
            "warning: unparenthesized '*' chain of length "
            f"{len(factors)} groups to the left by default",
            file=sys.stderr,
        )
        values = [eval_expr(f, env) for f in factors]
        # ((v1*v2)*v3)*... and v1*(v2*(...*vn)).
        left = values[0]
        for v in values[1:]:
            left = left * v
        right = values[-1]
        for v in reversed(values[:-1]):
            right = v * right
        # An overflowed grouping is refused as a result; it says nothing
        # about whether the grouping matters.
        if not (_is_finite(left) and _is_finite(right)):
            continue
        if not _eq(left, right, tolerance):
            print(
                "warning: the grouping changes the value here:", file=sys.stderr
            )
            print(f"  left-to-right: {format_octonion(left)}", file=sys.stderr)
            print(f"  right-to-left: {format_octonion(right)}", file=sys.stderr)


def _cmd_commutator(args, tolerance) -> int:
    from .brackets import additive_commutator, multiplicative_commutator
    from .textform import parse_octonion

    x = parse_octonion(args.x, args.backend)
    y = parse_octonion(args.y, args.backend)
    if args.flavor == "additive":
        _emit_value(additive_commutator(x, y), args.fmt)
        return EXIT_OK
    c = multiplicative_commutator(x, y)
    _emit_value(c, args.fmt)
    ok = _eq((x * y) * c, y * x, tolerance)
    _emit_check_line("(x*y)*c = y*x", ok, args.fmt)
    return EXIT_OK if ok else EXIT_CHECK


def _cmd_associator(args, tolerance) -> int:
    from .brackets import additive_associator, multiplicative_associator
    from .textform import parse_octonion

    x = parse_octonion(args.x, args.backend)
    y = parse_octonion(args.y, args.backend)
    z = parse_octonion(args.z, args.backend)
    if args.flavor == "additive":
        _emit_value(additive_associator(x, y, z), args.fmt)
        return EXIT_OK
    a = multiplicative_associator(x, y, z)
    _emit_value(a, args.fmt)
    left, right = (x * y) * z, x * (y * z)
    forward = _eq(left * a, right, tolerance)
    backward = _eq(left, right * a.conjugate(), tolerance)
    _emit_check_line("((x*y)*z)*a = x*(y*z)", forward, args.fmt)
    _emit_check_line("(x*y)*z = (x*(y*z))*a~", backward, args.fmt)
    return EXIT_OK if forward and backward else EXIT_CHECK


def _emit_check_line(label: str, ok: bool, fmt: str) -> None:
    status = "OK" if ok else "FAIL"
    if fmt == "machine":
        key = label.replace(" ", "")
        print(f"verify:{key}\t{status}")
    else:
        print(f"{label}: {status}")


def _cmd_orders(args, tolerance) -> int:
    from .textform import format_coefficients, format_octonion, parse_octonion
    from .trees import (
        _machine_blocks,
        _require_representable,
        _text_lines,
        _tree_labels,
        associator_matrix,
        tree_products,
        verify_matrix,
    )

    factors = [parse_octonion(text, args.backend) for text in args.factors]
    n = len(factors)
    # Built before anything is printed, so an evaluation error leaves no
    # partial output.
    if args.matrix:
        matrix = associator_matrix(factors)
        products = matrix.products
    else:
        matrix = None
        products = tree_products(factors)
        _require_representable(factors, products)
    orders = zip(_tree_labels(n), products)
    if args.fmt == "machine":
        print(f"n\t{n}")
        print(f"orders\t{len(products)}")
        for k, (label, value) in enumerate(orders, start=1):
            print(f"order_{k}\t{label}\t{format_coefficients(value)}")
    else:
        plural = "s" if len(products) != 1 else ""
        print(f"{n} factor product, {len(products)} evaluation order{plural}:")
        for k, (label, value) in enumerate(orders, start=1):
            print(f"  {k}: {label} = {format_octonion(value)}")
    if matrix is None:
        return EXIT_OK

    if args.fmt == "machine":
        lines = _machine_blocks(matrix)
    else:
        print("order-conversion matrix (entry i j converts order i into order j):")
        lines = _text_lines(matrix)
    # One row per write: an 8-factor exact matrix is 126-133 MB of text,
    # held twice while it is joined.
    for block in lines:
        sys.stdout.write(block)
        sys.stdout.write("\n")
    diagonal_ok, symmetry_ok = verify_matrix(matrix, tolerance)
    _emit_check_line("diagonal all 1", diagonal_ok, args.fmt)
    _emit_check_line("entry(j,i) = entry(i,j)~", symmetry_ok, args.fmt)
    return EXIT_OK if diagonal_ok and symmetry_ok else EXIT_CHECK


def _cmd_check(args, tolerance) -> int:
    from .checks import run_checks
    from .sampling import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    reports = run_checks(
        cases=args.cases, seed=seed, backend=args.backend, tolerance=tolerance
    )
    all_ok = True
    for report in reports:
        if args.fmt == "machine":
            print(f"{report.name}\t{report.passed}/{report.cases}")
        else:
            status = "ok" if report.ok else "FAIL"
            print(f"{report.name}: {report.passed}/{report.cases} passed [{status}]")
            if report.first_failure:
                print(f"  first failure: {report.first_failure}")
        all_ok = all_ok and report.ok
    if args.fmt == "machine":
        print(f"result\t{'pass' if all_ok else 'fail'}")
    else:
        total = len(reports)
        if all_ok:
            print(f"all {total} identities passed ({args.cases} cases each)")
        elif args.backend == EXACT:
            print("identity failures detected: this is an implementation bug")
        else:
            print(
                f"identity failures detected at tolerance {tolerance!r}: rounding "
                "beyond that tolerance, or an implementation bug; rerun with "
                "--backend exact to tell which"
            )
    return EXIT_OK if all_ok else EXIT_CHECK


_COMMANDS = {
    "eval": _cmd_eval,
    "commutator": _cmd_commutator,
    "associator": _cmd_associator,
    "orders": _cmd_orders,
    "check": _cmd_check,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One per process: `parse_args` leaves a parser as it found it, so the
    # `main` calls of one process can share it.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tolerance = resolve_tolerance(args.backend, args.tolerance)
        return _COMMANDS[args.command](args, tolerance)
    except (
        ZeroInverseError, UnboundVariableError, BackendMismatchError, NonFiniteError
    ) as exc:
        print(f"octalg: error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except ValueError as exc:
        # ParseError, InvalidToleranceError, ReservedIdentifierError,
        # OutOfRangeError, ShapeMismatchError, bad bindings, a case count
        # below 1: all user input.
        print(f"octalg: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
