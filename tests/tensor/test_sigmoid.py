"""``Tensor.sigmoid``: accuracy, range, saturation and dtype discipline."""

import tracemalloc

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad

# Dense over the range where float32 sigmoid is not yet saturated, plus
# the far tails where a naive exp overflows.
GRID = np.concatenate(
    [
        np.linspace(-100.0, 100.0, 400_001),
        [-1e4, 1e4, -np.float32(3.4e38), np.float32(3.4e38), 0.0, -0.0],
    ]
).astype(np.float32)


def reference(x):
    x = x.astype(np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


class TestSigmoidForward:
    def test_matches_float64_reference(self):
        out = Tensor(GRID).sigmoid().data
        assert np.abs(out - reference(GRID)).max() <= 2e-7

    def test_no_floating_point_exception_anywhere(self):
        with np.errstate(all="raise"):
            out = Tensor(GRID).sigmoid().data
        assert np.isfinite(out).all()

    def test_range_and_saturation(self):
        out = Tensor(GRID).sigmoid().data
        assert out.min() >= 0.0 and out.max() <= 1.0
        big = Tensor(np.array([-1e4, 1e4], dtype=np.float32)).sigmoid().data
        np.testing.assert_array_equal(big, [0.0, 1.0])
        assert Tensor(np.zeros(1)).sigmoid().data[0] == 0.5

    def test_monotone(self):
        ordered = np.sort(GRID)
        out = Tensor(ordered).sigmoid().data
        assert (np.diff(out) >= 0).all()

    def test_float32_in_float32_out_without_float64_temporaries(self):
        # A float64 temporary of this input would be 8 MB; the float32
        # result is 4 MB and every pass after the first is in place.
        x = Tensor(np.linspace(-5, 5, 1_000_000, dtype=np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                out = x.sigmoid()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.dtype == np.float32
        assert peak < 1.25 * out.data.nbytes

    def test_input_is_not_modified_and_strided_views_work(self):
        base = np.random.default_rng(0).normal(size=(6, 8)).astype(np.float32)
        before = base.copy()
        gate = Tensor(base)[:, 2:6]  # what the LSTM cell feeds it
        out = gate.sigmoid()
        np.testing.assert_array_equal(base, before)
        np.testing.assert_allclose(
            out.data, reference(before[:, 2:6]), atol=2e-7
        )
        assert not np.shares_memory(out.data, base)


class TestSigmoidBackward:
    def test_gradient_matches_reference_and_is_at_most_a_quarter(self):
        x = Tensor(GRID, requires_grad=True)
        x.sigmoid().backward(np.ones_like(GRID))
        s = reference(GRID)
        assert x.grad.dtype == np.float32
        assert x.grad.min() >= 0.0 and x.grad.max() <= 0.25
        assert np.abs(x.grad - s * (1.0 - s)).max() <= 2e-7
        assert x.grad[np.abs(GRID) >= 100.0].max() == 0.0

    def test_no_warning_through_forward_and_backward(self):
        x = Tensor(GRID, requires_grad=True)
        with np.errstate(all="raise"):
            x.sigmoid().sum().backward()
        assert np.isfinite(x.grad).all()

    def test_no_grad_builds_no_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = x.sigmoid()
        assert not out.requires_grad and out._backward_fn is None


@pytest.mark.parametrize("value", [-88.8, -87.0, -20.0, 20.0, 87.0, 88.8])
def test_around_the_float32_exp_overflow_threshold(value):
    out = Tensor(np.array([value], dtype=np.float32)).sigmoid().data
    assert abs(float(out[0]) - float(reference(np.float32([value]))[0])) <= 2e-7
