"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from octalg.cli import main
from octalg.trees import Leaf, _tree_labels, enumerate_trees, left_comb, render_tree

from tests.strategies import perturbed


# Commutator and associator operands whose compared products reach 1e9.
LARGE_OPERANDS = ("1000+999e1+3e5", "1000e2+7e3-13e6", "1000e3+11e7+5")

# Finite binary64 values whose products leave the range: 1e400 overflows,
# 1e-400 underflows to 0.
HUGE = "1" + "0" * 200 + ".0"
TINY = "0." + "0" * 199 + "1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_unit_product(self, capsys):
        code, out, err = run_cli(capsys, "eval", "(e1*e2)*e4")
        assert code == 0
        assert out.strip() == "e7"

    def test_let_bindings(self, capsys):
        # (1 + e1) * (-e2) = -e2 - e3
        code, out, _ = run_cli(
            capsys, "eval", "x*y~", "--let", "x=1 + e1", "--let", "y=e2"
        )
        assert code == 0
        assert out.strip() == "-e2 - e3"

    def test_machine_format(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "2 - 3/4e1 + e7", "--format", "machine")
        assert code == 0
        assert out == "result\t2,-3/4,0,0,0,0,0,1\n"

    @pytest.mark.parametrize(
        "expr",
        [
            "(" * 2000 + "e1" + ")" * 2000,
            "e1" + "~" * 3000,
            "*".join(["e1"] * 3000),
        ],
        ids=["parentheses", "postfix", "chain"],
    )
    def test_deep_expression_is_a_one_line_usage_error(self, capsys, expr):
        code, out, err = run_cli(capsys, "eval", expr)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "expression nests deeper than the limit of 200 levels" in err

    def test_defaulted_chain_warning_cites_both_groupings(self, capsys):
        code, out, err = run_cli(capsys, "eval", "e1*e2*e4")
        assert code == 0
        assert out.strip() == "e7"
        assert "warning" in err
        assert "left-to-right: e7" in err
        assert "right-to-left: -e7" in err

    def test_defaulted_chain_warns_even_when_orders_agree(self, capsys):
        code, _, err = run_cli(capsys, "eval", "e1*e2*e3")
        assert code == 0
        assert "groups to the left" in err
        assert "left-to-right" not in err

    def test_float_chain_compares_at_the_scaled_tolerance(self, capsys):
        # (x*y)*x = x*(y*x) holds; at magnitude 2e9 the two groupings differ
        # by 2.4e-7, about 1 ulp, which is no change of value.
        code, _, err = run_cli(
            capsys, "eval", "x*y*x", "--backend", "float",
            "--let", "x=1000.1+999.3e1+3.7e5", "--let", "y=1000.3e2+7.1e3-13.9e6",
        )
        assert code == 0
        assert "groups to the left" in err
        assert "changes the value" not in err

    def test_float_chain_whose_groupings_disagree_warns(self, capsys):
        code, _, err = run_cli(capsys, "eval", "e1*e2*e4", "--backend", "float")
        assert code == 0
        assert "the grouping changes the value here" in err
        assert "left-to-right: e7" in err
        assert "right-to-left: -e7" in err

    def test_overflowed_chain_does_not_blame_the_grouping(self, capsys):
        # Both groupings overflow to the same inf and NaN coefficients, which
        # compare unequal; the result is refused, not the grouping.
        code, out, err = run_cli(
            capsys, "eval", "x*y*x", "--backend", "float",
            "--let", f"x={HUGE}", "--let", f"y={HUGE}+e1",
        )
        assert code == 2
        assert out == ""
        assert "groups to the left" in err
        assert "grouping changes" not in err and "left-to-right" not in err
        assert "the result is beyond the binary64 range" in err

    def test_no_warning_with_explicit_parens(self, capsys):
        code, _, err = run_cli(capsys, "eval", "(e1*e2)*e4")
        assert code == 0
        assert err == ""

    def test_unbound_variable_is_eval_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "x*e1")
        assert code == 2
        assert "unbound" in err

    def test_zero_inverse_is_eval_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "x^-1", "--let", "x=0")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["1" + "0" * 400],
            ["1" + "0" * 308 + ".0+1" + "0" * 308 + ".0"],
            ["x*e2", "--let", "x=1" + "0" * 400 + ".0"],
        ],
        ids=["integer", "sum", "binding"],
    )
    def test_non_finite_float_literal_is_eval_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "eval", "--backend", "float", *argv)
        assert code == 2
        assert out == ""
        assert "binary64" in err

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "x*")
        assert code == 1
        assert "offset" in err

    def test_reserved_binding_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "e1", "--let", "e1=2")
        assert code == 1
        assert "reserved" in err

    def test_binding_without_equals_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "x", "--let", "x")
        assert code == 1
        assert out == ""
        assert err == "octalg: error: --let expects NAME=OCTONION, got 'x'\n"

    def test_float_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "0.5e1*0.5e1", "--backend", "float"
        )
        assert code == 0
        assert out.strip() == "-0.25"

    def test_float_machine_coefficients(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "0.5 - 0.125e3", "--backend", "float",
            "--format", "machine",
        )
        assert code == 0
        assert out == "result\t0.5,0.0,0.0,-0.125,0.0,0.0,0.0,0.0\n"

    def test_overflowed_float_result_is_eval_error(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--backend", "float", "x*x", "--let", f"x={HUGE}"
        )
        assert code == 2
        assert out == ""
        assert "the result is beyond the binary64 range" in err


class TestCommutator:
    def test_multiplicative_default(self, capsys):
        code, out, _ = run_cli(capsys, "commutator", "e1", "e2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1"
        assert lines[1] == "(x*y)*c = y*x: OK"

    def test_additive(self, capsys):
        code, out, _ = run_cli(capsys, "commutator", "e1", "e2", "--additive")
        assert code == 0
        assert out.strip() == "2e3"

    def test_zero_operand(self, capsys):
        code, _, err = run_cli(capsys, "commutator", "0", "e2")
        assert code == 2

    def test_float_verdict_scales_with_magnitude(self, capsys):
        # The compared sides reach 1e9; their roundoff is about 1 ulp there.
        code, out, _ = run_cli(
            capsys, "commutator", "--backend", "float", *LARGE_OPERANDS[:2]
        )
        assert code == 0
        assert out.splitlines()[1] == "(x*y)*c = y*x: OK"

    def test_nan_additive_result_is_eval_error(self, capsys):
        # x*y and y*x both overflow to inf; their difference is NaN.
        code, out, err = run_cli(
            capsys, "commutator", "--backend", "float", "--additive", HUGE, f"{HUGE}+e1"
        )
        assert code == 2
        assert out == ""
        assert "the result is beyond the binary64 range" in err


class TestAssociator:
    def test_multiplicative_with_verification(self, capsys):
        code, out, _ = run_cli(capsys, "associator", "e1", "e2", "e4", "--multiplicative")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1"
        assert lines[1] == "((x*y)*z)*a = x*(y*z): OK"
        assert lines[2] == "(x*y)*z = (x*(y*z))*a~: OK"

    def test_additive(self, capsys):
        code, out, _ = run_cli(capsys, "associator", "e1", "e2", "e4", "--additive")
        assert code == 0
        assert out.strip() == "-2e7"

    def test_non_finite_result_never_verifies(self, capsys):
        # 1e200 is finite, but its squared norm overflows to inf mid-computation:
        # an evaluation error on the input, not a failed identity check.
        huge = "1" + "0" * 200 + ".0e1"
        code, out, err = run_cli(
            capsys, "associator", "--backend", "float", huge, "e2", "e4"
        )
        assert code == 2
        assert out == ""
        assert "binary64" in err

    def test_float_verdicts_scale_with_magnitude(self, capsys):
        # The compared sides reach 1e9; their roundoff is about 1 ulp there.
        code, out, _ = run_cli(
            capsys, "associator", "--backend", "float", *LARGE_OPERANDS
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "((x*y)*z)*a = x*(y*z): OK",
            "(x*y)*z = (x*(y*z))*a~: OK",
        ]

    def test_underflowing_norm_is_not_a_zero_operand(self, capsys):
        tiny = "0." + "0" * 169 + "1"  # nonzero; its squared norm underflows to 0
        code, out, err = run_cli(
            capsys, "associator", "--backend", "float", tiny, "e2", "e4"
        )
        assert code == 2
        assert out == ""
        assert "underflows binary64" in err
        assert "zero octonion" not in err

    def test_non_finite_operand_refused(self, capsys):
        huge = "1" + "0" * 400 + ".0e1"
        code, out, err = run_cli(
            capsys, "associator", "--backend", "float", huge, "e2", "e4"
        )
        assert code == 2
        assert out == ""
        assert "binary64" in err

    def test_machine_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "associator", "e1", "e2", "e4", "--format", "machine"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "result\t-1,0,0,0,0,0,0,0"
        assert lines[1].endswith("\tOK")
        assert lines[2].endswith("\tOK")


# Six factors for the `orders --matrix` tests, the first n taken for n
# factors, and the verdict lines that end the machine and text formats.
MATRIX_FACTORS = ("1 + e1", "2 - e2", "e4 + 1/3e7", "3e5 - e6", "1/2 + e3", "-1 + 5/7e2 + e5")
MACHINE_VERDICTS = "verify:diagonalall1\tOK\nverify:entry(j,i)=entry(i,j)~\tOK\n"
TEXT_VERDICTS = "diagonal all 1: OK\nentry(j,i) = entry(i,j)~: OK\n"


class TestOrders:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "orders", "e1", "e2", "e4")
        assert code == 0
        assert "2 evaluation orders" in out
        assert "x1*(x2*x3) = -e7" in out
        assert "(x1*x2)*x3 = e7" in out

    def test_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "orders", "e1", "e2", "e4", "e3", "--matrix")
        assert code == 0
        assert "diagonal all 1: OK" in out
        assert "entry(j,i) = entry(i,j)~: OK" in out

    def test_matrix_machine(self, capsys):
        code, out, _ = run_cli(
            capsys, "orders", "e1", "e2", "e4", "--matrix", "--format", "machine"
        )
        assert code == 0
        lines = out.splitlines()
        assert "1\t2\t-1,0,0,0,0,0,0,0" in lines
        assert lines[-2] == "verify:diagonalall1\tOK"

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_machine_matrix_is_the_formatted_text(self, capsys, n, backend):
        from octalg.textform import parse_octonion
        from octalg.trees import associator_matrix, format_matrix_machine

        texts = MATRIX_FACTORS[:n]
        code, out, _ = run_cli(
            capsys, "orders", *texts, "--matrix", "--backend", backend, "--format", "machine"
        )
        assert code == 0
        m = associator_matrix([parse_octonion(text, backend) for text in texts])
        # The n and orders lines, one line per order, then the matrix.
        matrix_text = out.split("\n", 2 + m.size)[-1]
        assert matrix_text == format_matrix_machine(m) + "\n" + MACHINE_VERDICTS

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_machine_matrix_is_written_one_row_at_a_time(self, monkeypatch, backend):
        from octalg.textform import parse_octonion
        from octalg.trees import _machine_blocks, associator_matrix

        class Recording:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        stdout = Recording()
        monkeypatch.setattr(sys, "stdout", stdout)
        texts = MATRIX_FACTORS[:5]
        code = main(["orders", *texts, "--matrix", "--backend", backend, "--format", "machine"])
        assert code == 0
        blocks = list(_machine_blocks(associator_matrix([parse_octonion(t, backend) for t in texts])))
        assert len(blocks) == 14
        assert len(stdout.writes) >= len(blocks)
        assert max(map(len, stdout.writes)) <= max(map(len, blocks))
        assert "".join(stdout.writes).endswith("\n".join(blocks) + "\n" + MACHINE_VERDICTS)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_text_matrix_is_written_one_line_at_a_time(self, monkeypatch, backend):
        from octalg.textform import parse_octonion
        from octalg.trees import associator_matrix, format_matrix_text

        class Recording:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        stdout = Recording()
        monkeypatch.setattr(sys, "stdout", stdout)
        texts = MATRIX_FACTORS[:5]
        code = main(["orders", *texts, "--matrix", "--backend", backend])
        assert code == 0
        table = format_matrix_text(associator_matrix([parse_octonion(t, backend) for t in texts]))
        lines = table.split("\n")
        assert len(lines) == 14
        # No write holds more than one table line, or more than one newline.
        assert max(map(len, stdout.writes)) <= max(map(len, lines))
        assert all(text.count("\n") <= 1 for text in stdout.writes)
        assert "".join(stdout.writes).endswith(table + "\n" + TEXT_VERDICTS)

    @pytest.fixture
    def fraction_calls(self, monkeypatch):
        """A list that records the arguments of every `Fraction` built while
        it is in use."""
        calls = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ("orders", *MATRIX_FACTORS[:5], "--matrix"),
            ("orders", *MATRIX_FACTORS),
            ("eval", "(1/2 - 3/4e1 + e5)*(2/3e2 - e7)"),
        ],
        ids=["text-matrix", "listing", "eval"],
    )
    def test_exact_text_output_builds_no_fraction_but_parsing(self, capsys, fraction_calls, argv):
        from octalg.exprs import parse_with_info
        from octalg.textform import parse_octonion

        if argv[0] == "eval":
            parse_with_info(argv[1], "exact")
        else:
            for text in argv[1:]:
                if text != "--matrix":
                    parse_octonion(text)
        parsed = len(fraction_calls)
        assert parsed > 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out
        assert len(fraction_calls) == 2 * parsed

    def test_exact_rendering_builds_no_fraction(self, fraction_calls):
        from octalg.textform import format_coefficients, format_octonion, parse_octonion
        from octalg.trees import associator_matrix, format_matrix_text, tree_products

        factors = [parse_octonion(text) for text in MATRIX_FACTORS[:5]]
        matrix = associator_matrix(factors)
        products = tree_products(factors)
        del fraction_calls[:]
        assert format_matrix_text(matrix)
        assert [format_octonion(p) + format_coefficients(p) for p in products]
        assert fraction_calls == []

    @pytest.fixture
    def product_calls(self, monkeypatch):
        """The factor count of every `tree_products` call, wherever made: the
        CLI imports it from `trees` when a command runs."""
        from octalg import trees

        calls = []
        tree_products = trees.tree_products

        def counting(factors):
            calls.append(len(factors))
            return tree_products(factors)

        monkeypatch.setattr(trees, "tree_products", counting)
        return calls

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_matrix_builds_the_tree_products_once(self, capsys, product_calls, backend):
        code, _, _ = run_cli(
            capsys, "orders", "1+e1", "2-e2", "e4+1/3e7", "3e5-e6", "--matrix",
            "--backend", backend,
        )
        assert code == 0
        assert product_calls == [4]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_matrix_is_built_by_the_library(self, capsys, monkeypatch, backend):
        # One call builds the matrix and the products the CLI lists; with
        # the test above, the CLI multiplies nothing of its own.
        from octalg import trees

        calls = []
        build = trees.associator_matrix

        def recording(factors):
            calls.append(len(factors))
            return build(factors)

        monkeypatch.setattr(trees, "associator_matrix", recording)
        code, _, _ = run_cli(
            capsys, "orders", "1+e1", "2-e2", "e4+1/3e7", "3e5-e6", "--matrix",
            "--backend", backend,
        )
        assert code == 0
        assert calls == [4]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_impossible_matrix_is_refused_before_any_product(
        self, capsys, product_calls, backend
    ):
        code, out, err = run_cli(
            capsys, "orders", *(["1+e1"] * 9), "--matrix", "--backend", backend
        )
        assert code == 1
        assert out == ""
        assert "1..8" in err
        assert product_calls == []

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_zero_factor_matrix_is_refused_before_any_product(
        self, capsys, product_calls, backend
    ):
        code, out, err = run_cli(
            capsys, "orders", "e1", "0", "e2", "--matrix", "--backend", backend
        )
        assert code == 2
        assert out == ""
        assert err == "octalg: error: factor 2 is zero; all factors must be invertible\n"
        assert product_calls == []

    def test_zero_factor_with_matrix(self, capsys):
        code, _, err = run_cli(capsys, "orders", "e1", "0", "--matrix")
        assert code == 2

    def test_too_many_factors(self, capsys):
        code, _, err = run_cli(capsys, "orders", *(["e1"] * 13))
        assert code == 1

    def test_non_finite_matrix_refused(self, capsys):
        # 1e200 is finite, but the squared norm of every product overflows.
        huge = "1" + "0" * 200 + ".0e1"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            code, out, err = run_cli(
                capsys, "orders", huge, "e2", "e4", "--matrix", "--backend", "float",
                "--format", "machine",
            )
        assert code == 2
        assert "verify" not in out
        assert "binary64" in err

    def test_matrix_error_leaves_no_partial_output(self, capsys):
        # The listed products are finite; the matrix's squared norms are not.
        code, out, err = run_cli(
            capsys, "orders", "--backend", "float", f"{HUGE}e1", "e2", "e4", "--matrix"
        )
        assert code == 2
        assert out == ""
        assert "product under order 1 is beyond the binary64 range" in err

    def test_underflowing_matrix_norm_refused(self, capsys):
        # Each factor is nonzero, and so is every product, but the products'
        # squared norms underflow to 0.
        tiny = "0." + "0" * 99 + "1"
        code, out, err = run_cli(
            capsys, "orders", tiny, tiny, "e4", "--matrix", "--backend", "float"
        )
        assert code == 2
        assert "verify" not in out and "diagonal" not in out
        assert "underflows binary64" in err

    @pytest.mark.parametrize(
        "factor, problem",
        [
            ("0." + "0" * 199 + "1", "underflows binary64 to 0"),
            ("1" + "0" * 160 + ".0", "is beyond the binary64 range"),
        ],
        ids=["underflow", "overflow"],
    )
    def test_matrix_names_the_failing_order(self, capsys, factor, problem):
        # Both factors are nonzero; their product leaves the binary64 range.
        code, out, err = run_cli(
            capsys, "orders", factor, factor, "1", "--matrix", "--backend", "float"
        )
        assert code == 2
        assert "diagonal" not in out
        assert f"product under order 1 {problem}" in err
        assert "row 0" not in err and "zero octonion" not in err

    @pytest.mark.parametrize(
        "factor, problem",
        [(TINY, "underflows binary64 to 0"), (HUGE, "is beyond the binary64 range")],
        ids=["underflow", "overflow"],
    )
    def test_listing_names_the_failing_order(self, capsys, factor, problem):
        # Both factors are nonzero, so a zero product is an underflow; nothing
        # is listed once any product has left the binary64 range.
        code, out, err = run_cli(capsys, "orders", factor, factor, "1", "--backend", "float")
        assert code == 2
        assert out == ""
        assert f"the product under order 1 {problem}" in err

    def test_listing_keeps_the_zero_product_of_a_zero_factor(self, capsys):
        code, out, _ = run_cli(capsys, "orders", TINY, TINY, "0", "--backend", "float")
        assert code == 0
        assert "  1: x1*(x2*x3) = 0" in out.splitlines()

    @pytest.mark.parametrize("coefficient", [0, 5], ids=["diagonal", "off-diagonal"])
    def test_matrix_verification_can_fail(self, capsys, monkeypatch, coefficient):
        # 10x the tolerance added to coefficient 0 of the diagonal entry (1, 1)
        # breaks "diagonal all 1"; added to coefficient 5 of the off-diagonal
        # entry (1, 2), it breaks the conjugate symmetry.
        from octalg import trees

        j = 0 if coefficient == 0 else 1
        build = trees.associator_matrix
        monkeypatch.setattr(
            trees, "associator_matrix",
            lambda factors: perturbed(build(factors), 0, j, coefficient, 1e-11),
        )
        code, out, _ = run_cli(
            capsys, "orders", "1 + e1", "2 - e2", "e4 + 1/3e7", "--matrix",
            "--backend", "float", "--format", "machine",
        )
        assert code == 3
        diagonal, symmetry = out.splitlines()[-2:]
        assert diagonal.endswith("FAIL" if coefficient == 0 else "OK")
        assert symmetry.endswith("OK" if coefficient == 0 else "FAIL")


class TestCheckReport:
    def test_equality_and_repr(self):
        from octalg.checks import CheckReport

        report = CheckReport("moufang", 3, 1, "boom")
        assert report == CheckReport(name="moufang", cases=3, failures=1, first_failure="boom")
        assert report != CheckReport("moufang", 3, 1)
        assert report != ("moufang", 3, 1, "boom")
        assert repr(CheckReport("moufang", 3, 0)) == (
            "CheckReport(name='moufang', cases=3, failures=0, first_failure=None)"
        )
        assert (report.passed, report.ok) == (2, False)

    def test_mutable_and_unhashable(self):
        from octalg.checks import CheckReport, run_checks

        report = CheckReport("moufang", 3, 1, "boom")
        report.failures = 0
        assert report.ok
        with pytest.raises(TypeError):
            hash(report)
        assert run_checks(cases=2, names=["moufang"]) == [CheckReport("moufang", 2, 0)]

    def test_verdicts_are_pinned(self):
        # sha256 of the reports' repr: every verdict and first-failure text
        # of the suite, exact and float at four tolerances.
        from octalg.checks import run_checks

        exact = [run_checks(cases=40, seed=s) for s in (1, 2)]
        floats = [
            run_checks(cases=40, seed=s, backend="float", tolerance=t)
            for s in (1, 2)
            for t in (1e-12, 1e-15, 1e-16, 0.0)
        ]
        assert hashlib.sha256(repr(exact).encode()).hexdigest() == (
            "c4a471c0474e34ae6ff2087ace637092083f3a09c3113c8c46c322a519259694"
        )
        assert hashlib.sha256(repr(floats).encode()).hexdigest() == (
            "1d36a60a99199c523e286c401643814603e0ccc22fd33391aff6f3394c9ad806"
        )

    def test_unknown_names_are_refused(self):
        from octalg.checks import CHECK_NAMES, run_checks

        with pytest.raises(ValueError, match="unknown identity names 'moufnag'") as info:
            run_checks(cases=1, names=["moufang", "moufnag"])
        assert ", ".join(CHECK_NAMES) in str(info.value)
        with pytest.raises(ValueError, match="'u'"):
            run_checks(cases=1, names="unit-norm")
        assert run_checks(cases=1, names=[]) == []

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    def test_invalid_tolerance_is_refused(self, bad):
        from octalg.checks import run_checks
        from octalg.errors import InvalidToleranceError

        with pytest.raises(InvalidToleranceError):
            run_checks(cases=1, backend="float", tolerance=bad)

    @pytest.mark.parametrize("backend", ["Float", "Exact", "fraction"])
    def test_an_unknown_backend_is_refused(self, backend):
        # Refused before any case is drawn: sampling reads every name but
        # "float" as exact, so a misspelled float run would check exact cases.
        from octalg.checks import run_checks

        with pytest.raises(ValueError, match="backend must be 'exact' or 'float', got"):
            run_checks(cases=2, backend=backend)

    @pytest.mark.parametrize("tolerance", [1e-3, -1, float("nan")])
    def test_a_nonzero_exact_tolerance_is_refused(self, tolerance):
        from octalg.checks import run_checks
        from octalg.errors import InvalidToleranceError

        with pytest.raises(InvalidToleranceError, match="float backend"):
            run_checks(cases=1, backend="exact", tolerance=tolerance)
        assert run_checks(cases=1, backend="exact", tolerance=0) == run_checks(cases=1)

    @pytest.mark.parametrize("cases", [0, -3])
    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_a_case_count_below_one_is_refused(self, cases, backend):
        from octalg.checks import run_checks

        with pytest.raises(ValueError, match=f"cases must be at least 1, got {cases}"):
            run_checks(cases=cases, backend=backend)


class TestCheckProductCounts:
    """Each identity makes each of its own sides once; a product made inside
    a bracket function is never reused, so a wrong bracket cannot pass."""

    @pytest.mark.parametrize(
        "name, products",
        [
            ("product-conversion", 10),
            ("conjugate-conversion", 10),
            ("inverse-of-product", 4),
            ("associator-forms", 10),
            ("commutator-conversion", 7),
            ("unit-norm", 8),
            ("schafer-identity", 14),
            ("bi-associativity", 56),
            ("norm-multiplicativity", 1),
            ("alternative-laws", 7),
            ("moufang", 6),
            ("bracket-duality", 15),
        ],
    )
    def test_exact_case_products_are_pinned(self, count_products, name, products):
        from octalg.checks import run_checks

        run_checks(cases=1, seed=7, names=[name])
        assert len(count_products) == products

    def test_float_schafer_case_reuses_the_residuals_sides(self, count_products):
        from octalg.checks import run_checks

        run_checks(cases=1, seed=7, backend="float", names=["schafer-identity"])
        assert len(count_products) == 14


class TestCheck:
    def test_exact_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--cases", "10", "--seed", "7")
        assert code == 0
        assert "all 12 identities passed" in out
        assert "10/10 passed [ok]" in out

    def test_float_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--cases", "10", "--seed", "7", "--backend", "float"
        )
        assert code == 0

    def test_machine_output_is_byte_stable(self, capsys):
        args = ("check", "--cases", "5", "--seed", "11", "--format", "machine")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("result\tpass\n")

    def test_bad_cases_value(self, capsys):
        code, _, err = run_cli(capsys, "check", "--cases", "0")
        assert code == 1

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_bad_cases_value_names_the_limit(self, capsys, cases):
        code, out, err = run_cli(capsys, "check", "--cases", cases, "--backend", "float")
        assert code == 1
        assert out == ""
        assert err == f"octalg: error: cases must be at least 1, got {cases}\n"

    def test_float_failure_names_the_tolerance(self, capsys):
        # At tolerance 0 float rounding fails identities: the summary names
        # the tolerance and the exact backend, not only a bug.
        args = ("check", "--backend", "float", "--tolerance", "0", "--cases", "3")
        code, out, _ = run_cli(capsys, *args)
        assert code == 3
        assert "bracket-duality: 0/3 passed [FAIL]" in out
        assert out.splitlines()[-1] == (
            "identity failures detected at tolerance 0.0: rounding beyond that "
            "tolerance, or an implementation bug; rerun with --backend exact to tell which"
        )
        code, out, _ = run_cli(capsys, *args, "--format", "machine")
        assert code == 3
        assert out.endswith("bracket-duality\t0/3\nresult\tfail\n")

    def test_exact_failure_is_an_implementation_bug(self, capsys, monkeypatch):
        from octalg import checks

        monkeypatch.setattr(checks, "IDENTITY_CHECKS", (("broken", lambda *_: "boom"),))
        code, out, _ = run_cli(capsys, "check", "--cases", "2")
        assert code == 3
        assert out == (
            "broken: 0/2 passed [FAIL]\n  first failure: boom\n"
            "identity failures detected: this is an implementation bug\n"
        )

    def test_default_seed_is_the_sampling_default(self, capsys):
        from octalg.sampling import DEFAULT_SEED

        _, default, _ = run_cli(capsys, "check", "--cases", "1", "--format", "machine")
        _, named, _ = run_cli(
            capsys, "check", "--cases", "1", "--format", "machine", "--seed", str(DEFAULT_SEED)
        )
        assert DEFAULT_SEED == 12345
        assert default == named


def _octonion_from_machine_line(line):
    from fractions import Fraction

    from octalg import Octonion

    coeffs = line.split("\t")[1]
    return Octonion([Fraction(v) for v in coeffs.split(",")])


class TestCrossCommandInvariant:
    def test_eval_orders_differ_by_cli_associator(self, capsys):
        # first order times the associator the CLI itself reports gives the
        # second order.
        x, y, z = "1 + 2e1 - e5", "3 - e2", "e4 + 1/2e7"
        lets = ["--let", f"a={x}", "--let", f"b={y}", "--let", f"c={z}"]
        outputs = {}
        for expr in ("(a*b)*c", "a*(b*c)"):
            code, out, _ = run_cli(capsys, "eval", expr, "--format", "machine", *lets)
            assert code == 0
            outputs[expr] = _octonion_from_machine_line(out.splitlines()[0])
        code, out, _ = run_cli(capsys, "associator", x, y, z, "--format", "machine")
        assert code == 0
        assoc = _octonion_from_machine_line(out.splitlines()[0])
        assert outputs["(a*b)*c"] * assoc == outputs["a*(b*c)"]


class TestGlobalFlags:
    def test_tolerance_on_exact_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "e1", "--tolerance", "1e-9")
        assert code == 1
        assert "float backend" in err

    def test_negative_tolerance_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "e1", "--backend", "float", "--tolerance", "-1"
        )
        assert code == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "associator", "e1", "e2", "e4", "--backend", "float",
            "--tolerance", bad,
        )
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 1

    def test_missing_arguments_exit_one(self, capsys):
        code = main(["commutator", "e1"])
        capsys.readouterr()
        assert code == 1


class TestParserReuse:
    """`main` parses with one parser per process; `build_parser` makes a new one."""

    def test_build_parser_is_fresh_and_main_reuses_one(self):
        from octalg import cli

        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_a_let_binding_does_not_reach_the_next_call(self, capsys):
        from octalg import cli

        assert run_cli(capsys, "eval", "x*2", "--let", "x=e1") == (0, "2e1\n", "")
        code, out, err = run_cli(capsys, "eval", "x*2")
        assert (code, out) == (2, "")
        assert "'x'" in err
        assert cli._parser().parse_args(["eval", "x"]).let == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["eval", "--help"],
            ["orders", "--help"],
            [],
            ["frobnicate"],
            ["commutator", "e1"],
            ["associator", "e1", "e2", "e4", "--additive", "--multiplicative"],
            ["check", "--cases", "many"],
            ["eval", "e1", "--backend", "rational"],
        ],
    )
    def test_usage_and_help_match_a_fresh_parser(self, capsys, argv):
        from octalg.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        captured = capsys.readouterr()
        fresh = (int(info.value.code or 0), captured.out, captured.err)
        assert fresh[1] or fresh[2]
        # Twice: the first call may be the one that builds the shared parser.
        assert run_cli(capsys, *argv) == fresh
        assert run_cli(capsys, *argv) == fresh


# Run in a fresh interpreter, since this test session has imported every
# module: runs the command line on sys.argv[1:] with its output discarded,
# then prints the exit code and the loaded octalg, numpy and orjson modules.
_LOADED_MODULES = """
import contextlib, io, sys
from octalg import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(
    m for m in sys.modules if m in ("numpy", "orjson") or m.split(".")[0] == "octalg"
))
"""


def _loaded_modules(*argv):
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv], capture_output=True, text=True,
        check=True,
    )
    code, *modules = result.stdout.split()
    assert code == "0", result
    return {m.removeprefix("octalg.") for m in modules}


class TestColdStart:
    """Each subcommand loads only the modules it runs."""

    def test_import_loads_only_the_parser_modules(self):
        assert _loaded_modules() == {"octalg", "cli", "core", "errors"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("commutator", "1+e1", "e2"),
            ("commutator", "1+e1", "e2", "--additive"),
            ("associator", "1+e1", "e2", "e4"),
            ("associator", "1+e1", "e2", "e4", "--additive", "--backend", "float"),
        ],
        ids=["commutator", "additive-commutator", "associator", "additive-float-associator"],
    )
    def test_brackets_load_no_trees_exprs_checks_or_sampling(self, argv):
        loaded = _loaded_modules(*argv)
        assert "brackets" in loaded
        assert not loaded & {"trees", "exprs", "checks", "sampling"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "(e1*e2)*e4"),
            ("eval", "x*y~*z^-1", "--let", "x=1+e1", "--let", "y=e2", "--let", "z=e4"),
        ],
        ids=["grouped", "defaulted-chain"],
    )
    def test_eval_loads_no_trees_brackets_or_checks(self, argv):
        loaded = _loaded_modules(*argv)
        assert "exprs" in loaded
        assert not loaded & {"trees", "brackets", "checks"}

    def test_exact_matrix_loads_no_exprs_brackets_checks_or_numpy(self):
        loaded = _loaded_modules("orders", "1+e1", "e2", "e4", "3-e5", "--matrix")
        assert "trees" in loaded
        assert not loaded & {"exprs", "brackets", "checks", "numpy"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "x*y~*z^-1", "--let", "x=1+e1", "--let", "y=e2", "--let", "z=e4"),
            ("commutator", "1+e1", "e2", "--format", "machine"),
            ("associator", "1+e1", "e2", "e4", "--additive"),
            ("orders", "1+e1", "e2", "e4", "3-e5", "--format", "machine"),
            ("orders", "1+e1", "e2", "e4", "3-e5", "--matrix", "--format", "machine"),
            ("orders", "1+e1", "e2", "e4", "--matrix"),
            ("check", "--cases", "1", "--format", "machine"),
            ("orders", "1+e1", "e2", "e4", "3-e5", "--backend", "float", "--format", "machine"),
            ("orders", "1+e1", "e2", "e4", "3-e5", "--backend", "float"),
            ("orders", "1+e1", "e2", "e4", "--matrix", "--backend", "float"),
        ],
        ids=[
            "eval", "commutator", "associator", "listing", "matrix", "text-matrix", "check",
            "float-listing", "float-text-listing", "float-text-matrix",
        ],
    )
    def test_exact_commands_and_float_text_load_no_orjson(self, argv):
        assert "orjson" not in _loaded_modules(*argv)

    def test_float_machine_matrix_loads_orjson(self):
        loaded = _loaded_modules(
            "orders", "1+e1", "e2", "e4", "--matrix", "--backend", "float",
            "--format", "machine",
        )
        assert {"trees", "textform", "numpy", "orjson"} <= loaded


class TestConsoleScript:
    def test_installed_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "octalg.cli", "associator", "e1", "e2", "e4"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout.splitlines()[0] == "-1"

    def test_machine_output_byte_identical_across_processes(self):
        argv = [
            sys.executable, "-m", "octalg.cli",
            "check", "--cases", "5", "--seed", "11", "--format", "machine",
        ]
        runs = [
            subprocess.run(argv, capture_output=True).stdout for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].endswith(b"result\tpass\n")


# Seven fixed factors; their float matrix holds values that repr writes in
# scientific notation, so both renderings of a float are exercised.
GOLDEN_FACTORS = (
    "1 + 2e1 - 3/4e5", "3 - e2 + 1/2e6", "e4 + 1/2e7", "2/3 - e3 + 5e4",
    "1/5 + e1 + e2 + e7", "7 - 2e5 + 1/3e6", "1/2 + 3/7e3 - e4",
)


# Three more factors for the 10-factor listing (4,862 orders).
TEN_FACTOR_EXTRA = ("2 - e6 + 1/9e2", "e5 + 4/3e1 - 1", "1/7 + e3 - 2e7")


class TestGoldenOutput:
    """sha256 of the full stdout of a 7-factor ``orders --matrix`` and of a
    10-factor ``orders`` listing, so that no change to how the orders or the
    matrix are computed, stored or rendered can change a byte unnoticed."""

    @pytest.mark.parametrize(
        "backend, fmt, digest",
        [
            ("exact", "machine", "06daeae40f6be83bff2cb68aa72e6c9ae40e77b668be1d4e3c58c43b7e6b3714"),
            ("float", "machine", "241191ff7fb5f3f04d6069b636ea96181ef0c6c836cd4c26b0765c45b0f4222b"),
            ("float", "text", "b284623869fca6c7a80beca6897b1df2cd30214c6c9742d6906873e9938fcfad"),
            ("exact", "text", "1b759e3279e905b5a29efdd4aca7e0773af891c64d9fee2474e54dfe2a4bc66a"),
        ],
    )
    def test_seven_factor_matrix(self, capsys, backend, fmt, digest):
        code, out, _ = run_cli(
            capsys, "orders", *GOLDEN_FACTORS, "--matrix", "--backend", backend,
            "--format", fmt,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "backend, fmt, digest",
        [
            ("exact", "text", "ca2ab0f08fa3f57a895a87065fc3e053ad56a883a2058c590bf3e6f01a608f86"),
            ("exact", "machine", "878a8a8fc3aa7af1c660a22df2403fd1c8bdc61bcd9c571e492d00b4dbdad55e"),
            ("float", "text", "6b9eb6195643fb016a7324b4bf032d537bd43da9bdb62f158bf6649d36fd70a5"),
            ("float", "machine", "79fc63bb1f0545454aef43ebd954413a77b03a5793fda66db2e65e7131633bc2"),
        ],
    )
    def test_ten_factor_listing(self, capsys, backend, fmt, digest):
        code, out, _ = run_cli(
            capsys, "orders", *GOLDEN_FACTORS, *TEN_FACTOR_EXTRA, "--backend", backend,
            "--format", fmt,
        )
        assert code == 0
        assert out.count("\n") == 4862 + (1 if fmt == "text" else 2)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_listing_labels_are_the_rendered_trees(self):
        for n in range(1, 13):
            assert _tree_labels(n) == [render_tree(t) for t in enumerate_trees(n)]

    def test_render_tree_default_labels(self):
        assert render_tree(left_comb(4)) == "((x1*x2)*x3)*x4"
        assert render_tree(Leaf(3)) == "x3"
