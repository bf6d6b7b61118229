"""Analytic memory and compute footprints of bucketed GNN execution.

These formulas mirror, allocation by allocation, what the concrete
autograd execution creates (see the op inventory in each function).  They
serve three consumers:

* the **symbolic executor** — sweeps configurations too large to run
  concretely (Fig. 2's fanout-800 points) by replaying alloc/free events
  against a :class:`~repro.device.SimulatedGPU`;
* the **cost model** — FLOPs and DRAM traffic feed the roofline timing;
* **Buffalo's BucketMemEstimator** — per-bucket memory for the grouping
  algorithm (paper §IV-D), validated against the concrete ledger in
  Table III's reproduction.

``tests/gnn/test_footprint.py`` cross-checks these numbers against the
real allocation ledger on small configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import FLOAT_BYTES
from repro.errors import GraphError

#: Fraction of forward activation bytes additionally live at the backward
#: peak: every gradient-requiring activation gets a same-sized gradient
#: buffer that stays live until the graph is released.  Calibrated
#: against the concrete ledger (tests/gnn/test_footprint.py).
BACKWARD_OVERHEAD = 1.0

#: Backward pass FLOPs as a multiple of forward FLOPs (standard 2x).
BACKWARD_FLOPS = 2.0

#: Aggregators the fused backend runs as CSR products, without the
#: ``(n, d, f)`` neighbor tensor (pool/LSTM always build it).
_CSR_AGGREGATORS = ("mean", "sum", "max", "gcn", "attention")


@dataclass(frozen=True)
class Footprint:
    """Resource usage of a unit of work.

    Attributes:
        activation_bytes: bytes retained until the backward pass releases
            the graph (saved activations).
        grad_bytes: gradient-buffer bytes live at the backward peak (one
            buffer per gradient-requiring activation).
        flops: forward floating point operations.
        dram_bytes: device-memory traffic for roofline timing.
        transient_bytes: bytes live at the unit's forward high-water
            mark, when that exceeds what it retains (a layer whose
            forward builds and drops more than it keeps); 0 otherwise.
    """

    activation_bytes: float
    grad_bytes: float
    flops: float
    dram_bytes: float
    transient_bytes: float = 0.0

    def __add__(self, other: "Footprint") -> "Footprint":
        return Footprint(
            self.activation_bytes + other.activation_bytes,
            self.grad_bytes + other.grad_bytes,
            self.flops + other.flops,
            self.dram_bytes + other.dram_bytes,
            self.transient_bytes + other.transient_bytes,
        )

    @staticmethod
    def zero() -> "Footprint":
        return Footprint(0.0, 0.0, 0.0, 0.0)

    def scaled(self, factor: float) -> "Footprint":
        return Footprint(
            self.activation_bytes * factor,
            self.grad_bytes * factor,
            self.flops * factor,
            self.dram_bytes * factor,
            self.transient_bytes * factor,
        )


def _resolve_backend(backend: str | None) -> str:
    """Backend name to model; ``None`` means the active kernel backend."""
    if backend is not None:
        return backend
    from repro.kernels.dispatch import get_kernel_backend

    return get_kernel_backend().name


def aggregator_bucket_footprint(
    name: str,
    n: int,
    d: int,
    in_dim: int,
    hidden: int,
    *,
    input_requires_grad: bool = True,
    heads: int = 1,
    backend: str | None = None,
) -> Footprint:
    """Footprint of aggregating one bucket of ``n`` nodes of degree ``d``.

    ``activation_bytes`` counts what stays live until backward — i.e.
    arrays captured by backward closures.  The ``(n, d, f)`` neighbor
    gather is retained for mean/sum/max only when the layer's inputs
    require grad (the first layer's inputs are leaf features, so its
    gather dies right after the reduction); pool/LSTM/attention always
    retain it because their parameterized matmuls save it for backward.

    ``backend`` selects the kernel backend being modeled (``None`` =
    whichever is active, so Eq. 1-2 estimates follow the executed
    path).  The **fused** backend never materializes the ``(n, d, f)``
    gather for mean/sum/max/gcn/attention — its backward rebuilds the
    CSR operator from block indices and borrows scratch from the
    workspace arena (amortized across buckets, excluded from the
    per-bucket live set) — so those retained-gather terms vanish, and
    over leaf inputs their outputs are off the tape and retain nothing
    per bucket (:func:`layer_footprint`'s reassembly carries their
    forward transient); pool/LSTM stay dense under every backend.

    Per-aggregator retained inventory (float32 = 4 B unless noted):

    * mean/sum — reduction output ``(n, f)``.
    * max — output ``(n, f)`` plus int64 argmax ``(n, f)``.
    * pool — MLP pre-activation, ReLU mask (1 B) and output, all
      ``(n, d, h)``, plus argmax and output ``(n, h)``.
    * lstm — per step: input slice ``(n, f)``, concat ``(n, f+h)``,
      fused gates ``(n, 4h)`` twice (matmul out + bias add), four gate
      activations and the c/h tail ``(~6h)`` — about ``2f + 14h`` floats
      per node per step, all ``d`` steps retained.
    * attention — projected neighbors and weighted product ``(n, d, h)``,
      ~5 score/softmax arrays ``(n, d)``, output ``(n, h)``.
    """
    if n == 0 or d == 0:
        return Footprint.zero()
    b = FLOAT_BYTES
    irg = input_requires_grad
    fused = (
        _resolve_backend(backend) == "fused" and name in _CSR_AGGREGATORS
    )
    gather = n * d * in_dim * b
    if name in ("mean", "sum", "max"):
        out = n * in_dim * b
        if fused:
            # CSR segment-reduce: the (n, f) output (plus, for max, the
            # int32 best-column tracker of the same element count) is
            # retained only on the tape — over leaf inputs it dies in
            # the reassembly; backward touches each source row once.
            act = (2 if name == "max" else 1) * out if irg else 0
            grad = out if irg else 0
            dram = gather + out
        else:
            # The dense argmax is index bookkeeping, untracked like
            # every non-float array.
            act = out + (gather if irg else 0)
            grad = (out + gather) if irg else 0
            dram = 2 * gather
        flops = n * d * in_dim
    elif name == "pool":
        # matmul out + bias add + relu out, all (n, d, h); max out (n, h).
        mlp_acts = 3 * n * d * hidden * b
        act = gather + mlp_acts + n * hidden * b
        grad = 3 * n * d * hidden * b + n * hidden * b + (gather if irg else 0)
        flops = 2.0 * n * d * in_dim * hidden + n * d * hidden
        dram = 2 * gather + mlp_acts
    elif name == "lstm":
        # Per step: x slice (f), concat (f+h), fused matmul + bias add
        # (8h), four gate slices + four activations (8h), c/h tail (5h).
        act_per_step = n * (2 * in_dim + 21 * hidden) * b
        grad_per_step = n * ((2 * in_dim if irg else in_dim) + 21 * hidden) * b
        act = gather + d * act_per_step
        grad = d * grad_per_step + (gather if irg else 0)
        flops = d * (2.0 * n * (in_dim + hidden) * 4 * hidden + 10.0 * n * hidden)
        dram = 2 * gather + d * act_per_step
    elif name == "gcn":
        # Normalized sum: the (n, d, f) gather, its coefficient product,
        # and the (n, d, 1) coefficient tensor are retained only when
        # inputs require grad; the self-term gather/product and summed
        # output (~3 arrays of (n, f)) persist either way (on leaf
        # inputs they stand in for the dense forward's transient peak).
        # The fused weighted-sum's coefficients are untracked; over leaf
        # inputs its arrays are off the tape and die in the reassembly.
        out = 3 * n * in_dim * b
        coeff = n * d * b
        if fused:
            act = out if irg else 0
            grad = out if irg else 0
            dram = gather + coeff + out
        else:
            act = out + (2 * gather + coeff if irg else 0)
            grad = (out + 2 * gather) if irg else 0
            dram = 3 * gather
        flops = 3.0 * n * d * in_dim
    elif name == "attention":
        # nbr_proj + weighted (n, d, h) scale with the total width
        # (heads share it); the ~5 score/softmax arrays (n, d) are per
        # head; output (n, h).  Nearly everything is downstream of the
        # projection weights, so grads mirror activations.  Fused
        # attention drops the two (n, d, h) arrays — alpha and the
        # scores stay retained (softmax backward needs them).
        dense_ndh = 0 if fused else 2 * n * d * hidden * b
        act = (
            dense_ndh
            + 5 * n * d * b * heads
            + n * hidden * b
        )
        grad = act
        flops = 2.0 * n * d * hidden + 6.0 * n * d * heads
        dram = (
            2 * n * d * hidden * b
            if not fused
            else n * d * hidden * b + n * hidden * b
        )
    else:
        raise GraphError(f"unknown aggregator {name!r}")
    return Footprint(float(act), float(grad), float(flops), float(dram))


def combine_footprint(n_dst: int, in_dim: int, out_dim: int) -> Footprint:
    """The SAGE combine step: two Linears, a sum, and the activation.

    Allocations: ``W_self h`` (+bias), ``W_neigh agg``, their sum, and the
    ReLU output — about five ``(n_dst, out)`` arrays, all downstream of
    parameters, so gradients mirror them.
    """
    b = FLOAT_BYTES
    act = 5 * n_dst * out_dim * b
    flops = 2.0 * n_dst * in_dim * out_dim * 2  # two matmuls
    dram = (n_dst * in_dim + 5 * n_dst * out_dim) * b
    return Footprint(float(act), float(act), float(flops), float(dram))


def layer_footprint(
    degree_histogram: dict[int, int],
    in_dim: int,
    out_dim: int,
    aggregator: str,
    agg_hidden: int,
    *,
    input_requires_grad: bool = True,
    heads: int = 1,
    backend: str | None = None,
) -> Footprint:
    """Footprint of one full layer given the block's degree histogram.

    Args:
        degree_histogram: sampled degree -> number of destination rows.
        in_dim / out_dim: layer widths.
        aggregator: registry name.
        agg_hidden: aggregator hidden width.
        input_requires_grad: False for the input-most layer (leaf
            features), True for every later layer.
        heads: attention heads (GAT only).
        backend: kernel backend modeled (``None`` = active backend).
    """
    backend = _resolve_backend(backend)
    total = Footprint.zero()
    n_dst = 0
    for degree, count in degree_histogram.items():
        n_dst += count
        total = total + aggregator_bucket_footprint(
            aggregator,
            count,
            degree,
            in_dim,
            agg_hidden,
            input_requires_grad=input_requires_grad,
            heads=heads,
            backend=backend,
        )
    agg_out = (
        agg_hidden if aggregator in ("pool", "lstm", "attention") else in_dim
    )
    # Bucket reassembly (concat + permute back to dst order): two
    # (n_dst, agg_out) arrays retained by the downstream matmul closure;
    # they require grad exactly when the aggregator outputs do (the
    # dense GCN's self-term puts them on the tape even over leaves).
    reassembly_bytes = float(2 * n_dst * agg_out * FLOAT_BYTES)
    retained, transient = reassembly_bytes, 0.0
    on_tape = (
        input_requires_grad
        or aggregator in ("pool", "lstm", "attention")
        or (aggregator == "gcn" and backend != "fused")
    )
    if backend == "fused" and not on_tape:
        # Only the permuted rows the Linear saves stay live, but the
        # bucket outputs, their concat (one bucket needs none) and the
        # permuted copy are live at once first.  (The dense path's
        # retained terms stand in for its own transient, the gather.)
        copies = 3 if len(degree_histogram) > 1 else 2
        retained = reassembly_bytes / 2
        transient = copies * reassembly_bytes / 2
    reassembly = Footprint(
        retained,
        reassembly_bytes if on_tape else 0.0,
        0.0,
        reassembly_bytes,
        transient,
    )
    if aggregator == "gcn":
        # GCN's combine is a single Linear (3 retained arrays vs SAGE's
        # 5); approximate with 0.6 of the SAGE combine.
        combine = combine_footprint(n_dst, in_dim, out_dim).scaled(0.6)
    else:
        combine = combine_footprint(n_dst, max(in_dim, agg_out), out_dim)
    return total + reassembly + combine


def model_layer_footprints(
    blocks,
    spec: "ModelSpec",
    *,
    backend: str | None = None,
) -> list[Footprint]:
    """Per-layer footprints of running ``spec`` over chained ``blocks``."""
    backend = _resolve_backend(backend)
    return [
        layer_footprint(
            degree_histogram_of_block(block),
            f_in,
            f_out,
            spec.aggregator,
            spec.hidden_dim,
            input_requires_grad=(i > 0),
            heads=spec.heads,
            backend=backend,
        )
        for i, (block, (f_in, f_out)) in enumerate(
            zip(blocks, spec.layer_dims())
        )
    ]


def input_feature_bytes(n_src: int, feat_dim: int) -> int:
    """Bytes of the input-layer feature tensor loaded to the device."""
    return int(n_src * feat_dim * FLOAT_BYTES)


def working_set_bytes(layer_footprints: list[Footprint]) -> float:
    """Peak bytes the layers add for one forward+backward.

    Forward retains every layer's activations; the backward peak adds
    the per-activation gradient buffers.  A layer's forward transient
    sits on top of what the layers before it (input-most first)
    retain, and sets the peak when it is the larger.
    """
    retained = 0.0
    forward_peak = 0.0
    for fp in layer_footprints:
        forward_peak = max(forward_peak, retained + fp.transient_bytes)
        retained += fp.activation_bytes
    backward_peak = retained + sum(fp.grad_bytes for fp in layer_footprints)
    return max(forward_peak, backward_peak)


def training_peak_bytes(
    layer_footprints: list[Footprint],
    input_bytes: int,
    param_bytes: int,
) -> float:
    """Peak device bytes for one forward+backward over the given layers:
    the layers' working set plus parameters with their gradients and
    the input features."""
    return (
        input_bytes + 2.0 * param_bytes + working_set_bytes(layer_footprints)
    )


def training_flops(layer_footprints: list[Footprint]) -> float:
    """Forward + backward FLOPs for one iteration over the layers."""
    forward = sum(fp.flops for fp in layer_footprints)
    return forward * (1.0 + BACKWARD_FLOPS)


def training_dram_bytes(layer_footprints: list[Footprint]) -> float:
    """DRAM traffic for one iteration (backward re-reads activations)."""
    forward = sum(fp.dram_bytes for fp in layer_footprints)
    return forward * (1.0 + BACKWARD_FLOPS)


def degree_histogram_of_block(block) -> dict[int, int]:
    """Degree histogram ``{degree: count}`` of a block's destinations."""
    degrees, counts = np.unique(block.degrees, return_counts=True)
    return {int(d): int(c) for d, c in zip(degrees, counts)}


@dataclass(frozen=True)
class ModelSpec:
    """Static description of a GNN workload for analytic footprints.

    Mirrors the constructor arguments of
    :class:`~repro.gnn.sage.GraphSAGE` / :class:`~repro.gnn.gat.GAT` so
    the symbolic executor and Buffalo's estimator can reason about a
    model without instantiating it.
    """

    in_dim: int
    hidden_dim: int
    n_classes: int
    n_layers: int
    aggregator: str = "mean"
    #: Attention heads (GAT only); total hidden width stays hidden_dim.
    heads: int = 1
    #: Feature dropout between layers (consumed by build_model).
    dropout: float = 0.0

    def layer_dims(self) -> list[tuple[int, int]]:
        """Per-layer ``(in, out)`` widths, input-most first."""
        dims = (
            [self.in_dim]
            + [self.hidden_dim] * (self.n_layers - 1)
            + [self.n_classes]
        )
        return [(dims[i], dims[i + 1]) for i in range(self.n_layers)]

    def param_bytes(self) -> int:
        """Approximate parameter bytes (weights only, float32)."""
        total = 0
        h = self.hidden_dim
        for f_in, f_out in self.layer_dims():
            if self.aggregator == "attention":
                # GAT layer: projection + two attention vectors + bias.
                total += f_in * f_out + 3 * f_out
                continue
            if self.aggregator == "gcn":
                total += f_in * f_out + f_out  # one linear + bias
                continue
            agg_out = h if self.aggregator in ("pool", "lstm") else f_in
            total += f_in * f_out + f_out  # w_self + bias
            total += agg_out * f_out  # w_neigh
            if self.aggregator == "lstm":
                total += (f_in + h) * 4 * h + 4 * h
            elif self.aggregator == "pool":
                total += f_in * h + h
        return int(total * FLOAT_BYTES)
