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


class TestAgainstScalarBackend:
    def test_multiply(self, rng):
        xs, ax = _batch(rng, 64)
        ys, ay = _batch(rng, 64)
        out = kernels.multiply(ax, ay)
        for row, x, y in zip(out, xs, ys):
            assert tuple(row) == (x * y).c  # bitwise, same accumulation order

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
