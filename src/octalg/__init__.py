"""octalg: octonion arithmetic, order-conversion brackets, product trees.

Exact rationals are the reference backend: every identity the package
verifies holds there with tolerance 0.  A binary64 backend (with batched
numpy kernels for the order-conversion matrix) is available for speed.

Each exported name is resolved on first use, loading only the submodule
that defines it, so a process that needs one subcommand of the command
line does not compile the rest of the package.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    "additive_associator": "brackets",
    "additive_commutator": "brackets",
    "expand_word": "brackets",
    "multiplicative_associator": "brackets",
    "multiplicative_commutator": "brackets",
    "schafer_residual": "brackets",
    "EXACT": "core",
    "FLOAT": "core",
    "Octonion": "core",
    "BackendMismatchError": "errors",
    "InvalidToleranceError": "errors",
    "InvalidWordError": "errors",
    "NonFiniteError": "errors",
    "OctalgError": "errors",
    "OutOfRangeError": "errors",
    "ParseError": "errors",
    "ReservedIdentifierError": "errors",
    "ShapeMismatchError": "errors",
    "UnboundVariableError": "errors",
    "ZeroInverseError": "errors",
    "Environment": "exprs",
    "Expr": "exprs",
    "eval_expr": "exprs",
    "parse": "exprs",
    "parse_with_info": "exprs",
    "render_expr": "exprs",
    "cayley_dickson_product": "table",
    "structure_table": "table",
    "format_coefficients": "textform",
    "format_octonion": "textform",
    "parse_octonion": "textform",
    "AssociatorMatrix": "trees",
    "Leaf": "trees",
    "Node": "trees",
    "ProductTree": "trees",
    "associator_matrix": "trees",
    "enumerate_trees": "trees",
    "evaluate": "trees",
    "generalized_associator": "trees",
    "left_comb": "trees",
    "right_comb": "trees",
    "tree_products": "trees",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
