"""The :class:`Tensor` autograd core.

Reverse-mode automatic differentiation over numpy arrays.  The graph is a
DAG of tensors; each non-leaf tensor stores its parents and a closure that
propagates its output gradient to them.  ``backward()`` runs a topological
sweep from a scalar loss.

Device accounting: when a tensor is created with (or inherits) a
``device``, the raw numpy buffer is registered with the device's memory
ledger.  Activation lifetime is then modeled faithfully by Python object
lifetime — saved activations stay referenced by backward closures until
the graph is released, exactly as a framework keeps activations until
``backward()`` completes.

What is tracked is exactly every ``Tensor.data`` and every ``.grad``.
Scratch an op allocates inside its forward or its backward closure (a
mask, a product it hands to ``_accumulate``, a workspace) is not, unless
it becomes one of those two.  ``gnn/footprint.py`` and the Eq. 1-2
estimator are calibrated against that set, so the rule for changing an
op is: making it cheaper may add, drop or reuse scratch freely, but a
change to *which* buffers end up as ``.data`` / ``.grad`` (fusing two
nodes into one, recomputing instead of saving) moves the ledger's peak,
K and the schedule, and must change ``gnn/footprint.py`` in the same PR.
``tests/device/test_ledger_neutrality.py`` pins the set.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.errors import AutogradError

_GRAD_ENABLED = True
_FLOAT = np.dtype(FLOAT_DTYPE)
#: Index components numpy treats as basic indexing: the result is a view,
#: so no element of the source is selected twice.
_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _is_basic_index(key) -> bool:
    for component in key if type(key) is tuple else (key,):
        if not isinstance(component, _BASIC_INDEX) or isinstance(component, bool):
            return False
    return True


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after a broadcasted forward op."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Args:
        data: array-like; converted to the library float dtype when it is
            floating point (integer arrays keep their dtype — useful for
            index tensors).
        requires_grad: track gradients through this tensor.
        device: optional :class:`repro.device.SimulatedGPU`; the buffer is
            registered with its ledger (possibly raising
            :class:`~repro.errors.DeviceOutOfMemoryError`).
    """

    __slots__ = ("data", "grad", "requires_grad", "device", "_parents",
                 "_backward_fn", "__weakref__")

    def __init__(
        self,
        data,
        *,
        requires_grad: bool = False,
        device=None,
        _parents: tuple["Tensor", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        arr = np.asarray(data)
        if np.issubdtype(arr.dtype, np.floating) and arr.dtype != FLOAT_DTYPE:
            arr = arr.astype(FLOAT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None  # guarded-by: owner-thread (autograd graphs are never shared across threads)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.device = device
        self._parents = _parents if self.requires_grad else ()
        self._backward_fn = _backward_fn if self.requires_grad else None
        if device is not None:
            device.track(self.data)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """A new tensor sharing data, cut from the graph."""
        return Tensor(self.data, device=self.device)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """The result node of an op: ``data`` is the array it just computed.

        Fills the slots directly — one pass over ``parents`` — instead of
        going through ``__init__``'s coercion of arbitrary input.
        """
        if type(data) is not np.ndarray:
            data = np.asarray(data)  # reductions return numpy scalars
        if data.dtype != _FLOAT and data.dtype.kind == "f":
            data = data.astype(_FLOAT)
        device = None
        needs_grad = []
        for parent in parents:
            if device is None:
                device = parent.device
            if parent.requires_grad:
                needs_grad.append(parent)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.device = device
        if needs_grad and _GRAD_ENABLED:
            out.requires_grad = True
            out._parents = tuple(needs_grad)
            out._backward_fn = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward_fn = None
        if device is not None:
            device.track(data)
        return out

    def _accumulate(self, grad: np.ndarray, *, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned`` says ``grad`` is a temporary the calling closure just
        computed and drops: the first touch then adopts it as the
        gradient buffer instead of copying it — when it is what the copy
        would have been, an array of this dtype owning exactly its own
        bytes, so the ledger charges the same either way.
        """
        if self.grad is None:
            if (
                owned
                and type(grad) is np.ndarray
                and grad.base is None
                and grad.dtype == self.data.dtype
            ):
                self.grad = grad
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
            if self.device is not None:
                # Gradient buffers live on the device too (they are what
                # makes backward the memory peak of real training).
                self.device.track(self.grad)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            grad: seed gradient; defaults to 1 for scalar tensors.
        """
        if not self.requires_grad:
            raise AutogradError("backward() on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise AutogradError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        # Backward closures propagate whatever sits in ``node.grad``; stash
        # grads left over from earlier backward() calls so each pass
        # propagates only its own seed, then merge the stash back (PyTorch
        # retain_graph accumulation semantics).
        stash = [(node, node.grad) for node in topo if node.grad is not None]
        for node, _ in stash:
            node.grad = None

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

        for node, old in stash:
            node.grad = old if node.grad is None else node.grad + old

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward_fn)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad * other.data, self.shape), owned=True
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(grad * self.data, other.shape), owned=True
                )

        return Tensor._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad / other.data, self.shape), owned=True
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(
                        -grad * self.data / (other.data**2), other.shape
                    ),
                    owned=True,
                )

        return Tensor._make(out_data, (self, other), backward_fn)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise AutogradError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(
                grad * exponent * self.data ** (exponent - 1), owned=True
            )

        return Tensor._make(out_data, (self,), backward_fn)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape), owned=True)
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape), owned=True)

        return Tensor._make(out_data, (self, other), backward_fn)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward_fn)

    def transpose(self, *axes: int) -> "Tensor":
        axes_ = tuple(axes) if axes else tuple(range(self.ndim))[::-1]
        out_data = self.data.transpose(axes_)
        inverse = np.argsort(axes_)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward_fn)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        basic = _is_basic_index(key)

        def backward_fn(grad: np.ndarray) -> None:
            if basic:
                # A view selects each element at most once: add straight
                # into the (tracked, allocated once) gradient buffer.
                if self.grad is None:
                    self._accumulate(np.zeros_like(self.data), owned=True)
                self.grad[key] += grad
            else:
                # Advanced keys may repeat an index; only add.at sums those.
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return Tensor._make(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = (
            self.size
            if axis is None
            else np.prod(
                [self.shape[a] for a in np.atleast_1d(axis)]
            )
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        argmax = np.expand_dims(self.data.argmax(axis=axis), axis=axis)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            full = np.zeros_like(self.data)
            np.put_along_axis(full, argmax, g, axis=axis)
            self._accumulate(full, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * mask, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2), owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        # sigmoid(x) = (1 + tanh(x / 2)) / 2: tanh saturates where exp
        # would overflow, and every pass after the first is in place.
        out_data = np.multiply(self.data, 0.5)
        np.tanh(out_data, out=out_data)
        out_data *= 0.5
        out_data += 0.5

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(
                grad * out_data * (1.0 - out_data), owned=True
            )

        return Tensor._make(out_data, (self,), backward_fn)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype)
        out_data = self.data * scale

        def backward_fn(grad: np.ndarray) -> None:
            self._accumulate(grad * scale, owned=True)

        return Tensor._make(out_data, (self,), backward_fn)
