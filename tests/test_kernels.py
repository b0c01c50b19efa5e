"""Batched float kernels: bitwise parity with the scalar float backend,
and the module boundary that keeps numpy off the exact paths."""

import subprocess
import sys
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
