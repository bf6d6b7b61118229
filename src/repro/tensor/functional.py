"""Softmax-family functionals with numerically stable fused backward."""

from __future__ import annotations

import numpy as np

from repro.errors import AutogradError
from repro.tensor.tensor import Tensor


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward_fn(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        logits._accumulate(out_data * (grad - dot), owned=True)

    return Tensor._make(out_data, (logits,), backward_fn)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits.data - logits.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    probs = np.exp(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        logits._accumulate(
            grad - probs * grad.sum(axis=axis, keepdims=True), owned=True
        )

    return Tensor._make(out_data, (logits,), backward_fn)


def cross_entropy_with_logits(
    logits: Tensor,
    targets: np.ndarray,
    *,
    reduction: str = "mean",
) -> Tensor:
    """Cross-entropy of integer ``targets`` against row ``logits``.

    Args:
        logits: shape ``(n, n_classes)``.
        targets: int array of shape ``(n,)``.
        reduction: ``"mean"``, ``"sum"``, or ``"none"``.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise AutogradError(
            f"logits must be 2-D (n, classes), got shape {logits.shape}"
        )
    if targets.shape != (logits.shape[0],):
        raise AutogradError(
            f"targets shape {targets.shape} does not match logits rows "
            f"({logits.shape[0]})"
        )
    if reduction not in ("mean", "sum", "none"):
        raise AutogradError(f"unknown reduction {reduction!r}")

    n = logits.shape[0]
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    losses = -log_probs[np.arange(n), targets]
    probs = np.exp(log_probs)

    if reduction == "mean":
        out_data = losses.mean()
    elif reduction == "sum":
        out_data = losses.sum()
    else:
        out_data = losses

    def backward_fn(grad: np.ndarray) -> None:
        dlogits = probs.copy()
        dlogits[np.arange(n), targets] -= 1.0
        if reduction == "mean":
            dlogits *= float(grad) / n
        elif reduction == "sum":
            dlogits *= float(grad)
        else:
            dlogits *= grad[:, None]
        logits._accumulate(dlogits, owned=True)

    return Tensor._make(np.asarray(out_data), (logits,), backward_fn)
