"""octalg: octonion arithmetic, order-conversion brackets, product trees.

Exact rationals are the reference backend: every identity the package
verifies holds there with tolerance 0.  A binary64 backend (with batched
numpy kernels for the order-conversion matrix) is available for speed.
"""

from .brackets import (
    additive_associator,
    additive_commutator,
    expand_word,
    multiplicative_associator,
    multiplicative_commutator,
    schafer_residual,
)
from .core import EXACT, FLOAT, Octonion, cayley_dickson_product, structure_table
from .errors import (
    BackendMismatchError,
    InvalidToleranceError,
    InvalidWordError,
    NonFiniteError,
    OctalgError,
    OutOfRangeError,
    ParseError,
    ReservedIdentifierError,
    ShapeMismatchError,
    UnboundVariableError,
    ZeroInverseError,
)
from .exprs import Environment, Expr, eval_expr, parse, parse_with_info, render_expr
from .textform import format_coefficients, format_octonion, parse_octonion
from .trees import (
    AssociatorMatrix,
    Leaf,
    Node,
    ProductTree,
    associator_matrix,
    enumerate_trees,
    evaluate,
    generalized_associator,
    left_comb,
    right_comb,
    tree_products,
)

__version__ = "0.1.0"

__all__ = [
    "AssociatorMatrix",
    "BackendMismatchError",
    "EXACT",
    "Environment",
    "Expr",
    "FLOAT",
    "InvalidToleranceError",
    "InvalidWordError",
    "Leaf",
    "Node",
    "NonFiniteError",
    "OctalgError",
    "Octonion",
    "OutOfRangeError",
    "ParseError",
    "ProductTree",
    "ReservedIdentifierError",
    "ShapeMismatchError",
    "UnboundVariableError",
    "ZeroInverseError",
    "additive_associator",
    "additive_commutator",
    "associator_matrix",
    "cayley_dickson_product",
    "enumerate_trees",
    "eval_expr",
    "evaluate",
    "expand_word",
    "format_coefficients",
    "format_octonion",
    "generalized_associator",
    "left_comb",
    "multiplicative_associator",
    "multiplicative_commutator",
    "parse",
    "parse_octonion",
    "parse_with_info",
    "render_expr",
    "right_comb",
    "schafer_residual",
    "structure_table",
    "tree_products",
]
