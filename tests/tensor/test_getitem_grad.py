"""``Tensor.__getitem__`` backward: in-place for views, ``add.at`` otherwise.

A basic index (ints, slices, ``None``, ``...``) selects each element at
most once, so its gradient is added straight into the parent's gradient
buffer; the reference below is the scatter every key used to go through.
"""

import numpy as np
import pytest

from repro.gnn import LSTMAggregator, bucketize_degrees
from repro.gnn.block import Block
from repro.nn import LSTM
from repro.tensor import Tensor
from tests.tensor.test_autograd import check_grad

RNG = np.random.default_rng(0)

BASIC_KEYS = {
    "int": 2,
    "negative-int": -1,
    "numpy-int": np.int64(1),
    "slice": slice(1, 3),
    "strided-slice": slice(None, None, 2),
    "negative-step": slice(None, None, -1),
    "negative-step-bounded": slice(3, 0, -2),
    "empty-slice": slice(2, 2),
    "none": None,
    "ellipsis": Ellipsis,
    "column": (slice(None), 1),
    "lstm-step": (slice(None), 2, slice(None)),
    "gate": (Ellipsis, slice(1, 3)),
    "int-int": (1, 2),
    "all-ints": (1, 2, 0),
    "none-mixed": (None, slice(0, 2), None, 1),
    "ellipsis-mixed": (0, Ellipsis, slice(None, None, -1)),
}

ADVANCED_KEYS = {
    "list": [0, 2],
    "repeated-list": [1, 1, 3, 1],
    "index-array": np.array([[0, 0], [3, 0]]),
    "bool-mask": np.arange(4) % 2 == 0,
    "bool-scalar": True,
    "slice-and-list": (slice(None), [0, 0, 2]),
    "paired-lists": ([0, 0, 1], [1, 1, 2]),
}


def scatter_reference(shape, key, upstream):
    """The gradient of ``x[key]`` by the general scatter."""
    full = np.zeros(shape)
    np.add.at(full, key, upstream)
    return full


def grad_of_getitem(x_data, key):
    x = Tensor(x_data, requires_grad=True)
    out = x[key]
    upstream = RNG.normal(size=out.shape).astype(np.float32)
    out.backward(upstream)
    return x.grad, upstream


class TestAgainstScatterReference:
    @pytest.mark.parametrize("name", sorted(BASIC_KEYS))
    def test_basic_key(self, name):
        x_data = RNG.normal(size=(4, 5, 3)).astype(np.float32)
        grad, upstream = grad_of_getitem(x_data, BASIC_KEYS[name])
        expected = scatter_reference(x_data.shape, BASIC_KEYS[name], upstream)
        np.testing.assert_array_equal(grad, expected.astype(np.float32))
        assert grad.dtype == x_data.dtype and grad.shape == x_data.shape

    @pytest.mark.parametrize("name", sorted(ADVANCED_KEYS))
    def test_advanced_key(self, name):
        x_data = RNG.normal(size=(4, 5, 3)).astype(np.float32)
        grad, upstream = grad_of_getitem(x_data, ADVANCED_KEYS[name])
        expected = scatter_reference(
            x_data.shape, ADVANCED_KEYS[name], upstream
        )
        np.testing.assert_allclose(grad, expected, rtol=1e-6, atol=1e-6)

    def test_repeated_indices_accumulate(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x[[1, 1, 1, 2]].sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 3.0, 1.0])

    def test_basic_key_never_scatters(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.add.at on a basic index")

        x = Tensor(np.ones((3, 4)), requires_grad=True)
        loss = (x[:, 1:3] * 2.0).sum() + x[::-1, None, 0].sum()
        monkeypatch.setattr(np.add, "at", forbidden, raising=False)
        loss.backward()
        np.testing.assert_array_equal(
            x.grad, [[1.0, 2.0, 2.0, 0.0]] * 3
        )


class TestFiniteDifferences:
    @pytest.mark.parametrize(
        "key",
        [
            1,
            slice(None, None, -2),
            (slice(None), None, 0),
            (Ellipsis, slice(1, None)),
            (slice(0, 2), slice(None, None, -1)),
            [2, 0, 2],
        ],
        ids=repr,
    )
    def test_key(self, key):
        check_grad(lambda a: a[key] * 3.0, RNG.normal(size=(3, 4)))

    def test_sliced_every_step_and_consumed_whole(self):
        # The LSTM pattern: one parent read through d views and as a whole.
        def fn(a):
            total = a.sum(axis=1) * 0.5
            for step in range(a.shape[1]):
                total = total + a[:, step, :].tanh() * float(step + 1)
            return total

        check_grad(fn, RNG.normal(size=(2, 4, 3)))


class TestGraphMechanics:
    def test_views_and_whole_share_one_gradient_buffer(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        loss = x[:, 0].sum() + (x * x).sum() + x[1, 1:].sum() + x[:, 0].sum()
        loss.backward()
        expected = 2.0 * x.data
        expected[:, 0] += 2.0
        expected[1, 1:] += 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_overlapping_views_add_up(self):
        x = Tensor(np.zeros(5), requires_grad=True)
        (x[0:3].sum() + x[1:4].sum() * 2.0 + x[::-1][0:2].sum()).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 3.0, 3.0, 3.0, 1.0])

    def test_second_backward_accumulates_through_the_stash(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        first = (x[:, :2] * 2.0).sum()
        first.backward()
        after_first = x.grad.copy()
        np.testing.assert_array_equal(after_first, [[2.0, 2.0, 0.0]] * 2)
        first.backward()  # same graph again: stash, propagate, merge
        np.testing.assert_array_equal(x.grad, 2.0 * after_first)
        second = x[1].sum()
        second.backward()  # another graph over the same leaf
        np.testing.assert_array_equal(
            x.grad, [[4.0, 4.0, 0.0], [5.0, 5.0, 1.0]]
        )

    def test_intermediate_view_grads_do_not_leak_between_passes(self):
        x = Tensor(np.ones(4), requires_grad=True)
        hidden = x * 3.0
        loss = hidden[1:3].sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(hidden.grad, [0.0, 2.0, 2.0, 0.0])
        np.testing.assert_array_equal(x.grad, [0.0, 6.0, 6.0, 0.0])

    def test_gradient_does_not_alias_the_upstream_buffer(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        view = x[:, :]
        view.backward(np.ones((2, 2), dtype=np.float32))
        assert not np.shares_memory(x.grad, view.grad)


class TestLSTMNeverScatters:
    """The aggregator's tape is slices all the way down."""

    @pytest.fixture()
    def no_add_at(self, monkeypatch):
        calls = []
        real = np.add.at

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.add, "at", counting, raising=False)
        return calls

    def test_lstm_over_a_sequence_that_needs_grad(self, no_add_at):
        sequence = Tensor(
            RNG.normal(size=(5, 4, 3)).astype(np.float32), requires_grad=True
        )
        lstm = LSTM(3, 6, rng=0)
        lstm(sequence).sum().backward()
        assert no_add_at == []
        assert sequence.grad is not None and np.abs(sequence.grad).min() > 0
        assert lstm.cell.weight.grad is not None

    def test_lstm_aggregator_forward_backward(self, no_add_at):
        block = Block(
            src_nodes=np.arange(6),
            dst_nodes=np.arange(3),
            indptr=np.array([0, 3, 6, 8]),
            indices=np.array([3, 4, 5, 0, 4, 5, 2, 3]),
        )
        features = Tensor(RNG.normal(size=(6, 3)).astype(np.float32))
        aggregator = LSTMAggregator(3, 4, rng=0)
        for bucket in bucketize_degrees(block.degrees, cutoff=5):
            aggregator(block, bucket, features).sum().backward()
        assert no_add_at == []
        assert aggregator.lstm.cell.weight.grad is not None
        assert aggregator.lstm.cell.bias.grad is not None
