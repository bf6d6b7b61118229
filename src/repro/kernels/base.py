"""Kernel backend interface: the bucket-aggregation primitives.

A backend implements the four dense-ish primitives the GNN layers are
built from, each over one degree bucket:

==========================  ====================================================
primitive                   used by
==========================  ====================================================
``bucket_reduce``           mean/sum/max GraphSAGE aggregators
``bucket_weighted_sum``     GCN (constant normalization coefficients)
``bucket_attention_sum``    GAT (learned attention weights)
``neighbor_tensor``         pool/LSTM aggregators (inherently dense)
==========================  ====================================================

Backends differ in *how* — the reference backend materializes the
``(n, d, f)`` neighbor tensor exactly as the pre-kernel-layer code did
(bit-for-bit), the fused backend reads the CSR directly — but every
primitive returns a :class:`~repro.tensor.tensor.Tensor` wired into the
autograd tape, so models are backend-oblivious.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket
from repro.kernels.workspace import Workspace
from repro.tensor.tensor import Tensor

__all__ = ["KernelBackend"]

_REDUCE_OPS = ("sum", "mean", "max")


class KernelBackend:
    """Base class for bucket-aggregation kernel backends.

    Attributes:
        name: registry name ("reference", "fused").
        workspace: scratch arena, reused across micro-batches; a
            backend that does not use scratch simply leaves it empty.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.workspace = Workspace(name=self.name)

    # -- group lifetime ------------------------------------------------
    def begin_group(self) -> None:
        """Start of a bucket group (one micro-batch)."""
        self.workspace.begin_group()

    def end_group(self) -> None:
        """End of a bucket group: scratch may be reused, metrics flush.

        Must only be called after the micro-batch's ``backward()`` has
        completed — backward closures of the fused backend borrow
        nothing from the arena precisely so this boundary is safe.
        """
        self.workspace.end_group()

    # -- primitives ----------------------------------------------------
    def bucket_reduce(
        self, block: Block, bucket: Bucket, src_feats: Tensor, op: str
    ) -> Tensor:
        """``op``-reduce (sum | mean | max) each row's neighbors: (n, f)."""
        raise NotImplementedError  # pragma: no cover - interface

    def bucket_weighted_sum(
        self,
        block: Block,
        bucket: Bucket,
        src_feats: Tensor,
        coeff: np.ndarray,
    ) -> Tensor:
        """Sum of neighbors scaled by constant ``coeff`` (n, d): (n, f)."""
        raise NotImplementedError  # pragma: no cover - interface

    def bucket_attention_sum(
        self,
        block: Block,
        bucket: Bucket,
        src_feats: Tensor,
        alpha: Tensor,
    ) -> Tensor:
        """Sum of neighbors weighted by learned ``alpha`` (n, d): (n, f).

        Unlike :meth:`bucket_weighted_sum`, ``alpha`` is a tensor on the
        tape and receives gradients.
        """
        raise NotImplementedError  # pragma: no cover - interface

    def neighbor_tensor(
        self, block: Block, bucket: Bucket, src_feats: Tensor
    ) -> Tensor:
        """The dense ``(n, d, f)`` neighbor tensor (pool/LSTM need it)."""
        raise NotImplementedError  # pragma: no cover - interface

    # -- shared helpers ------------------------------------------------
    @staticmethod
    def _check_op(op: str) -> None:
        if op not in _REDUCE_OPS:
            from repro.errors import GraphError

            raise GraphError(
                f"unknown bucket reduce op {op!r}; expected one of "
                f"{_REDUCE_OPS}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
