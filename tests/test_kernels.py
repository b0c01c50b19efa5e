"""Batched float kernels: bitwise parity with the scalar float backend,
and the module boundary that keeps numpy off the exact paths."""

import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from octalg import NonFiniteError, Octonion, ZeroInverseError, kernels
from octalg.sampling import random_octonion


def _batch(rng, n, nonzero=False):
    values = [random_octonion(rng, backend="float", nonzero=nonzero) for _ in range(n)]
    return values, kernels.from_octonions(values)


def _hex(values):
    """Bit patterns of floats: unlike ==, tells -0.0 from 0.0 and NaN equal to NaN."""
    return [float.hex(float(v)) for v in values]


def _edge_operands(rng):
    """Signed zeros, subnormals, near-overflow and overflowed coefficients."""
    overflowed = Octonion([1e200, 1e200] + [0.0] * 6)
    return [
        Octonion([0.0, -0.0, 1.0, -1.0, 0.0, 2.5, -0.0, 0.0]),
        Octonion([-0.0] * 8),
        Octonion([5e-324, -1e-310, 1e-300, 0.0, -2.2e-308, 1.0, -0.0, 3e-320]),
        Octonion([1e154, -1e154, 0.0, 1e154, -0.0, 1.0, 1e154, -1e154]),
        overflowed * overflowed,  # inf and NaN coefficients from overflow
        Octonion.unit(1, "float"),
        random_octonion(rng, backend="float"),
    ]


class TestAgainstScalarBackend:
    def test_multiply(self, rng):
        xs, ax = _batch(rng, 64)
        ys, ay = _batch(rng, 64)
        out = kernels.multiply(ax, ay)
        for row, x, y in zip(out, xs, ys):
            assert _hex(row) == _hex((x * y).c)

    def test_multiply_bitwise_on_edge_values(self, rng):
        # Every ordered pair, so each edge operand appears on both sides.
        values = _edge_operands(rng)
        pairs = [(x, y) for x in values for y in values]
        with np.errstate(all="ignore"):
            out = kernels.multiply(
                kernels.from_octonions([x for x, _ in pairs]),
                kernels.from_octonions([y for _, y in pairs]),
            )
        for row, (x, y) in zip(out, pairs):
            assert _hex(row) == _hex((x * y).c), (x, y)

    def test_norm_squared_bitwise_on_edge_values(self, rng):
        values = _edge_operands(rng)
        with np.errstate(all="ignore"):
            norms = kernels.norm_squared(kernels.from_octonions(values))
        assert _hex(norms) == _hex(x.norm_sq() for x in values)

    def test_pairwise_products(self, rng):
        xs, ax = _batch(rng, 5)
        ys, ay = _batch(rng, 3)
        out = kernels.pairwise_products(ax, ay)
        assert out.shape == (15, 8)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert tuple(out[i * 3 + j]) == (x * y).c

    @pytest.mark.parametrize(
        "rows, cols", [(7, 3), (1, 7), (7, 1), (0, 7)], ids=["7x3", "1x7", "7x1", "0x7"]
    )
    def test_pairwise_products_bitwise_on_edge_values(self, rng, rows, cols):
        values = _edge_operands(rng)
        xs, ys = values[:rows], values[-cols:]
        with np.errstate(all="ignore"):
            out = kernels.pairwise_products(kernels.from_octonions(xs), kernels.from_octonions(ys))
        assert out.shape == (rows * cols, 8)
        expected = [_hex((x * y).c) for x in xs for y in ys]
        assert [_hex(row) for row in out] == expected

    def test_pairwise_products_peak_memory(self):
        # Broadcast outer products copy neither operand: the peak is the
        # result, its 8 columns and one sum's temporaries, not 4x the result
        # as with a repeated and a tiled operand.
        gen = np.random.default_rng(132)
        a, b = gen.standard_normal((132, 8)), gen.standard_normal((132, 8))
        tracemalloc.start()
        try:
            out = kernels.pairwise_products(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes, peak / out.nbytes

    def test_conversion_verdicts_peak_memory(self):
        # The symmetry difference is formed in place: the peak is one
        # temporary the size of the matrix and its boolean mask, not the two
        # full-size temporaries an expression holds at once.
        size = 132
        entries = np.random.default_rng(132).standard_normal((size * size, 8))
        tracemalloc.start()
        try:
            kernels.conversion_verdicts(entries, size, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * entries.nbytes, peak / entries.nbytes

    @pytest.mark.parametrize(
        "i, j, k, value, verdicts",
        [
            (1, 2, 3, math.nan, (True, False)),
            (1, 2, 3, math.inf, (True, False)),
            (1, 1, 0, math.inf, (False, False)),
            (1, 1, 4, -math.inf, (False, False)),
            (2, 2, 0, math.nan, (False, False)),
        ],
    )
    def test_conversion_verdicts_fail_a_value_that_is_not_finite(self, i, j, k, value, verdicts):
        size = 3
        m = np.zeros((size, size, 8))
        m[np.arange(size), np.arange(size), 0] = 1.0
        assert kernels.conversion_verdicts(m.reshape(-1, 8), size, 1e-12) == (True, True)
        m[i, j, k] = value
        assert kernels.conversion_verdicts(m.reshape(-1, 8), size, 1e-12) == verdicts

    def test_conjugate_and_norm(self, rng):
        xs, ax = _batch(rng, 32)
        conj = kernels.conjugate(ax)
        norms = kernels.norm_squared(ax)
        for k, x in enumerate(xs):
            assert tuple(conj[k]) == x.conjugate().c
            assert norms[k] == x.norm_sq()

    def test_inverse(self, rng):
        xs, ax = _batch(rng, 32, nonzero=True)
        inv = kernels.inverse(ax)
        for row, x in zip(inv, xs):
            assert tuple(row) == x.inverse().c

    def test_inverse_rejects_zero_row(self, rng):
        _, ax = _batch(rng, 4, nonzero=True)
        ax[2] = 0.0
        with pytest.raises(ZeroInverseError, match="row 2"):
            kernels.inverse(ax)

    def test_inverse_rejects_overflowing_norm_without_warning(self, rng):
        _, ax = _batch(rng, 4, nonzero=True)
        ax[1, 3] = 1e200  # finite, but its square is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="row 1"):
                kernels.inverse(ax)

    def test_inverse_rejects_underflowing_norm(self, rng):
        _, ax = _batch(rng, 4, nonzero=True)
        ax[2] = [1e-170] + [0.0] * 7  # nonzero, but its square underflows to 0
        with pytest.raises(NonFiniteError, match="row 2 underflows binary64"):
            kernels.inverse(ax)


class TestShapeHandling:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="\\(n, 8\\)"):
            kernels.multiply(np.zeros((3, 7)), np.zeros((3, 7)))

    def test_rejects_mismatched_batches(self):
        with pytest.raises(ValueError, match="shapes differ"):
            kernels.multiply(np.zeros((3, 8)), np.zeros((4, 8)))

    def test_broadcast_outer_product_is_pairwise_products(self, rng):
        _, ax = _batch(rng, 5)
        _, ay = _batch(rng, 3)
        out = kernels.multiply(ax[:, None], ay[None, :])
        assert out.shape == (15, 8) and out.T.flags.c_contiguous
        assert _hex(out.ravel()) == _hex(kernels.pairwise_products(ax, ay).ravel())

    def test_length_counts_products(self, rng):
        # The tracer counts `multiply`'s rows as the length of its result.
        _, ax = _batch(rng, 5)
        _, ay = _batch(rng, 3)
        assert len(kernels.multiply(ax[:, None], ay[None, :])) == len(ax) * len(ay)
        assert len(kernels.multiply(ax, ax)) == len(ax)

    def test_broadcast_one_row_multiplies_every_row(self, rng):
        xs, ax = _batch(rng, 6)
        [y], ay = _batch(rng, 1)
        out = kernels.multiply(ax, ay)
        assert out.shape == (6, 8)
        assert [_hex(row) for row in out] == [_hex((x * y).c) for x in xs]

    def test_no_octonions_make_an_empty_batch(self, rng):
        _, p = _batch(rng, 3)
        empty = kernels.from_octonions([])
        assert empty.shape == (0, 8)
        assert kernels.pairwise_products(empty, p).shape == (0, 8)
        assert kernels.multiply(empty, empty).shape == (0, 8)

    def test_exact_octonions_stack_as_their_float_copies(self, rng):
        values = [random_octonion(rng) for _ in range(5)]
        stacked = kernels.from_octonions(values)
        assert [_hex(row) for row in stacked] == [_hex(x.as_float().c) for x in values]

    def test_round_trip_wrappers(self, rng):
        # The order-conversion matrix wraps one array row at a time this way.
        xs, ax = _batch(rng, 5)
        assert [Octonion(row.tolist()) for row in ax] == xs


class TestModuleBoundary:
    def test_cli_import_leaves_numpy_unloaded(self):
        code = "import sys, octalg.cli; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_cli_import_leaves_dataclasses_and_inspect_unloaded(self):
        # Both cost milliseconds at every CLI start; the package needs neither.
        code = (
            "import sys, octalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
