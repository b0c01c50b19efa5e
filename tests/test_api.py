"""The package's public surface, pinned so that an export is added or
removed only on purpose."""

import octalg

PUBLIC_NAMES = {
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
}


def test_all_resolves_once_and_matches_the_pinned_surface():
    exported = octalg.__all__
    assert len(exported) == len(set(exported)), "a name is listed twice"
    namespace = {}
    exec("from octalg import *", namespace)
    for name in exported:
        assert namespace[name] is getattr(octalg, name)
    assert set(exported) == PUBLIC_NAMES
