"""What an op leaves on the tape: node construction and gradient buffers.

The device ledger charges every ``Tensor.data`` and ``.grad``; these
tests hold the properties that keep that charge a function of shapes:
each gradient buffer is a private array of its tensor's shape and dtype.
"""

import numpy as np

from repro.device import SimulatedGPU
from repro.tensor import Tensor, concat, no_grad, stack


def walk(root):
    seen, stack_ = {}, [root]
    while stack_:
        node = stack_.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack_.extend(node._parents)
    return list(seen.values())


def owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def lstm_like_graph(device=None):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3, 5)), requires_grad=True, device=device)
    w = Tensor(rng.normal(size=(7, 8)), requires_grad=True, device=device)
    bias = Tensor(np.zeros(8), requires_grad=True, device=device)
    h = Tensor(np.zeros((4, 2)), device=device)
    for step in range(3):
        fused = concat([x[:, step, :], h], axis=1) @ w + bias
        gate = fused[:, 0:2].sigmoid() * fused[:, 2:4].tanh()
        h = gate + (-fused[:, 4:6]).relu() * fused[..., 6:8] / 3.0
    pooled = stack([h, h * 2.0], axis=1).max(axis=1)
    loss = (pooled.mean(axis=0).sum() + (x ** 2).sum()) * 0.5
    return loss, (x, w, bias)


class TestGradientBuffers:
    def test_every_grad_is_a_private_array_of_its_tensors_shape(self):
        loss, _ = lstm_like_graph()
        loss.backward()
        # 0-d gradients are numpy scalars, which the ledger cannot hold.
        nodes = [n for n in walk(loss) if n.grad is not None and n.ndim]
        assert len(nodes) > 30
        for node in nodes:
            assert type(node.grad) is np.ndarray
            assert node.grad.dtype == node.data.dtype
            assert node.grad.shape == node.data.shape
            assert owner(node.grad).nbytes == node.data.nbytes
        for i, a in enumerate(nodes):
            assert not np.shares_memory(a.grad, a.data)
            for b in nodes[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)

    def test_matches_float64_oracle(self):
        loss, (x, w, _) = lstm_like_graph()
        loss.backward()

        def value(x_data):
            h = np.zeros((4, 2))
            for step in range(3):
                fused = np.concatenate([x_data[:, step, :], h], 1) @ w.data
                gate = 1 / (1 + np.exp(-fused[:, 0:2])) * np.tanh(fused[:, 2:4])
                h = gate + np.maximum(-fused[:, 4:6], 0) * fused[:, 6:8] / 3.0
            pooled = np.maximum(h, h * 2.0)
            return (pooled.mean(axis=0).sum() + (x_data**2).sum()) * 0.5

        base = x.data.astype(np.float64)
        numeric = np.zeros_like(base)
        for index in np.ndindex(*base.shape):
            plus, minus = base.copy(), base.copy()
            plus[index] += 1e-4
            minus[index] -= 1e-4
            numeric[index] = (value(plus) - value(minus)) / 2e-4
        np.testing.assert_allclose(x.grad, numeric, rtol=2e-3, atol=2e-3)


class TestNodeConstruction:
    def test_float_results_are_cast_to_the_library_dtype(self):
        counts = Tensor(np.arange(4))
        assert counts.dtype.kind == "i"
        assert (counts * 0.5).dtype == np.float32
        wide = Tensor(np.ones(3))
        wide.data = np.ones(3, dtype=np.float64)
        assert (wide + wide).dtype == np.float32

    def test_integer_results_keep_their_dtype(self):
        index = Tensor(np.arange(6).reshape(2, 3))
        assert index[1].dtype == index.dtype
        assert index.reshape(3, 2).dtype == index.dtype

    def test_scalar_results_are_zero_d_arrays(self):
        total = Tensor(np.ones((2, 2)), requires_grad=True).sum()
        assert type(total.data) is np.ndarray and total.data.ndim == 0
        picked = Tensor(np.ones((2, 2)), requires_grad=True)[1, 0]
        assert type(picked.data) is np.ndarray and picked.data.ndim == 0

    def test_parents_keep_only_what_needs_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2))
        out = a * b
        assert out.requires_grad and out._parents == (a,)
        frozen = b * b
        assert not frozen.requires_grad
        assert frozen._parents == () and frozen._backward_fn is None

    def test_no_grad_result_has_no_tape_and_no_grad_slot_garbage(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad and out._parents == ()
        assert out.grad is None and out._backward_fn is None

    def test_device_comes_from_the_first_parent_that_has_one(self):
        device = SimulatedGPU(2**20)
        on_device = Tensor(np.ones(4), device=device)
        host = Tensor(np.ones(4))
        before = device.live_bytes
        out = host + on_device
        assert out.device is device
        assert device.live_bytes == before + out.data.nbytes
        assert (host * host).device is None

    def test_views_are_not_charged_twice(self):
        device = SimulatedGPU(2**20)
        x = Tensor(np.ones((4, 4)), device=device)
        before = device.live_bytes
        views = [x[:, 1:3], x.reshape(16), x.T, x[1]]
        assert device.live_bytes == before
        del views
