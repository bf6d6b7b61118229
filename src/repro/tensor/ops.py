"""Module-level tensor operations: concatenation, stacking, row gather."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AutogradError
from repro.tensor.tensor import Tensor


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    if not tensors:
        raise AutogradError("concat of an empty sequence")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    stops = np.cumsum([t.shape[axis] for t in tensors]).tolist()
    starts = [0] + stops[:-1]

    def backward_fn(grad: np.ndarray) -> None:
        index = [slice(None)] * grad.ndim
        for t, start, stop in zip(tensors, starts, stops):
            if t.requires_grad:
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward_fn)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    if not tensors:
        raise AutogradError("stack of an empty sequence")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward_fn)


def gather_rows(tensor: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``tensor[index]`` (the feature-gather of message passing).

    Equivalent to ``tensor[index]`` but keeps the index as a plain numpy
    array and scatters gradients with ``np.add.at`` so repeated indices
    accumulate correctly.
    """
    index = np.asarray(index)
    out_data = tensor.data[index]

    def backward_fn(grad: np.ndarray) -> None:
        full = np.zeros_like(tensor.data)
        np.add.at(full, index, grad)
        tensor._accumulate(full, owned=True)

    return Tensor._make(out_data, (tensor,), backward_fn)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``a`` where ``condition`` else ``b``."""
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(
                np.broadcast_to(grad * condition, a.shape).astype(a.dtype)
                if grad.shape != a.shape
                else grad * condition
            )
        if b.requires_grad:
            masked = grad * ~condition
            b._accumulate(
                np.broadcast_to(masked, b.shape).astype(b.dtype)
                if masked.shape != b.shape
                else masked
            )

    return Tensor._make(out_data, (a, b), backward_fn)


def zeros_like(tensor: Tensor) -> Tensor:
    """A zero tensor with the same shape/dtype (no grad)."""
    return Tensor(np.zeros_like(tensor.data), device=tensor.device)
