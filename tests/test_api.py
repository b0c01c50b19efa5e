"""The package's public surface, pinned so that an export is added or
removed only on purpose."""

import subprocess
import sys

import pytest

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


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        octalg.no_such_name


def test_dir_lists_every_export_before_any_is_resolved():
    # A fresh interpreter: in this session every export is already resolved.
    code = (
        "import sys, octalg; names = dir(octalg); "
        "print(set(octalg.__all__) <= set(names), sorted(sys.modules).count('octalg.trees'))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout.split() == ["True", "0"], result


def test_every_name_the_benchmark_tracer_wraps_exists():
    # octbench/tracer.py wraps these names by getattr; a traced benchmark run
    # fails on one that was renamed or deleted.  Loaded from its file, not
    # imported from a package, and nothing of it is installed.
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "octbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_octbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, functions in tracer.SPAN_FUNCTIONS.items():
        module = importlib.import_module(f"octalg.{module_name}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"{module_name}.{function}"
    for metric, attribute in tracer.HOT_METHODS.items():
        assert callable(getattr(octalg.Octonion, attribute, None)), metric
