"""Micro-batch training with gradient accumulation (paper Algorithm 2).

Each micro-batch runs forward + backward on its own block chain; since
micro-batch outputs are *disjoint* seed subsets and the loss is a sum
over output nodes, accumulating gradients across micro-batches and
stepping once reproduces full-batch training exactly (up to float
associativity) — the property behind the paper's Fig. 17 / Table IV.

The trainer drives both clocks: CPU phases are wall-timed by the
profiler; data loading and GPU compute advance the simulated device
clock via the analytic cost model, while the device's allocation ledger
observes the real activation bytes of the numpy execution.

:func:`train_groups` is the one iteration loop: per group, in schedule
order on the caller thread, it materializes the group's micro-batch
(when given the sampled batch), trains it on the replica the placement
assigned it to (``train_micro_batch``), and records every contribution
into one shared :class:`GradientContributions`; it then reduces once
and steps every replica (``begin_iteration`` / ``finish_iteration``
bracket it).  :meth:`MicroBatchTrainer.train_iteration` runs it on
``[self]`` and :meth:`repro.core.api.BuffaloTrainer.run_iteration` on
its replicas, so both are bit-for-bit the same accumulation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.microbatch import materialize_micro_batch
from repro.core.split_parallel import ShardStager
from repro.datasets.catalog import Dataset
from repro.device.device import SimulatedGPU
from repro.device.profiler import Profiler
from repro.errors import ConvergenceError
from repro.gnn.block import Block
from repro.gnn.footprint import (
    ModelSpec,
    model_layer_footprints,
    training_dram_bytes,
    training_flops,
)
from repro.graph.sampling import SampledBatch
from repro.kernels.dispatch import resolve_backend, use_kernel_backend
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.obs.trace import get_tracer
from repro.tensor.functional import cross_entropy_with_logits
from repro.tensor.tensor import Tensor


class GradientContributions:
    """Schedule-order gradient reduction — the parity-defining semantics.

    Every replica of a device fleet (N >= 1, either placement policy)
    zeroes gradients before each micro-batch, records the micro-batch's
    contribution here tagged with its *schedule index*, and reduces by
    summing contributions in ascending index order::

        acc = g_0.copy(); acc += g_1; acc += g_2; ...

    Because each contribution is a deterministic function of the
    (synchronized) parameters and the micro-batch alone, the reduced
    gradient is bit-for-bit identical no matter which device computed
    which micro-batch — the invariant the differential parity suite
    (``tests/core/test_split_parallel_parity.py``) pins.

    Contributions are host-side copies (not device-tracked); each
    replica's :meth:`MicroBatchTrainer.finish_iteration` installs its own
    copy of the reduction, tracked on the replica's device, so gradient
    buffers stay visible to the ledger.
    """

    def __init__(self) -> None:
        self._by_index: dict[int, list[np.ndarray | None]] = {}
        self._loss_by_index: dict[int, float] = {}

    def record(
        self, index: int, parameters, loss_value: float
    ) -> None:
        """Snapshot one micro-batch's gradients and loss term."""
        if index in self._by_index:
            raise ConvergenceError(
                f"duplicate micro-batch schedule index {index}"
            )
        self._by_index[index] = [
            None if p.grad is None else p.grad.copy()
            for p in parameters
        ]
        self._loss_by_index[index] = float(loss_value)

    def reduced(self) -> list[np.ndarray | None]:
        """Sum contributions in schedule order (None where none exist)."""
        indices = sorted(self._by_index)
        if not indices:
            return []
        out: list[np.ndarray | None] = [
            None for _ in self._by_index[indices[0]]
        ]
        for index in indices:
            for j, grad in enumerate(self._by_index[index]):
                if grad is None:
                    continue
                if out[j] is None:
                    out[j] = grad.copy()
                else:
                    out[j] += grad
        return out

    def reduced_loss(self) -> float:
        """Loss terms summed in the same canonical schedule order."""
        total = 0.0
        for index in sorted(self._loss_by_index):
            total += self._loss_by_index[index]
        return total


@dataclass
class TrainResult:
    """Outcome of one training iteration.

    Attributes:
        loss: the full-batch-equivalent mean loss.
        peak_bytes: device peak memory across the iteration.
        n_micro_batches: micro-batches processed.
        micro_batch_peaks: per-micro-batch device peaks (empty without a
            device) — the concrete counterpart of Fig. 14's balance data.
        profiler: per-phase timing (wall + simulated).
    """

    loss: float
    peak_bytes: int
    n_micro_batches: int
    micro_batch_peaks: list = field(default_factory=list)
    profiler: Profiler = field(default_factory=Profiler)


class MicroBatchTrainer:
    """Runs Algorithm 2's inner loop over prepared micro-batches.

    Args:
        model: a :class:`~repro.gnn.sage.GraphSAGE` or
            :class:`~repro.gnn.gat.GAT` instance.
        spec: the matching :class:`ModelSpec` (drives the cost model).
        optimizer: optimizer over ``model.parameters()``.
        device: simulated GPU; ``None`` disables memory/time accounting.
        kernel_backend: bucket-aggregation backend name or instance
            ("fused" | "reference", see :mod:`repro.kernels`); the
            trainer scopes it around every micro-batch and marks the
            bucket-group boundary so the fused backend's workspace
            arena is reused across micro-batches.

    Attributes:
        stager: under the ``split`` placement policy, the
            :class:`~repro.core.split_parallel.ShardStager` pricing
            this replica's input rows as shard reads + halo exchange;
            ``None`` prices them as one host->device transfer.  Only
            the simulated staging time differs — never the numerics.
    """

    def __init__(
        self,
        model: Module,
        spec: ModelSpec,
        optimizer: Optimizer,
        device: SimulatedGPU | None = None,
        *,
        kernel_backend: str = "fused",
    ) -> None:
        self.model = model
        self.spec = spec
        self.optimizer = optimizer
        self.device = device
        self.kernel = resolve_backend(kernel_backend)
        self._contributions = GradientContributions()
        self.stager: ShardStager | None = None
        # Optional MemoryTimelineRecorder (obs.observatory.timeline);
        # None keeps the hot path at a single attribute check.
        self.timeline = None
        if device is not None:
            model.to_device(device)

    # ------------------------------------------------------------------
    def _simulate_compute(self, blocks: list[Block], profiler: Profiler) -> None:
        """Advance the device clock by the iteration's kernels."""
        if self.device is None:
            return
        footprints = model_layer_footprints(blocks, self.spec)
        duration = self.device.run_kernel(
            training_flops(footprints), training_dram_bytes(footprints)
        )
        profiler.add_sim("gpu_compute", duration)

    def _load_features(
        self,
        dataset: Dataset,
        node_map: np.ndarray,
        block: Block,
        profiler: Profiler,
    ) -> Tensor:
        """Gather the input rows on the host and place them on device.

        The only host-side feature gather of training; the simulated
        transfer is charged here too, so the device clock and ledger
        advance in schedule order.
        """
        global_nodes = node_map[block.src_nodes]
        features = dataset.features[global_nodes]
        if self.device is not None:
            if self.stager is not None:
                duration = self.stager.stage(global_nodes)
            else:
                duration = self.device.load(features.nbytes)
            profiler.add_sim("data_loading", duration)
        return Tensor(features, device=self.device)

    # ------------------------------------------------------------------
    def begin_iteration(
        self, contributions: GradientContributions | None = None
    ) -> None:
        """Zero gradients and reset the device peak for a new iteration.

        ``contributions`` lets the replicas of a device fleet record
        into one shared set keyed by global schedule index, so the
        reduction is the canonical single-device one regardless of
        which device ran which micro-batch.
        """
        self.model.zero_grad()
        self._contributions = (
            GradientContributions() if contributions is None else contributions
        )
        if self.device is not None:
            self.device.reset_peak()

    def train_micro_batch(
        self,
        dataset: Dataset,
        node_map: np.ndarray,
        mb,
        cutoffs: list[int],
        total_outputs: int,
        profiler: Profiler,
        *,
        index: int = 0,
    ) -> tuple[float, int | None]:
        """Forward + backward one micro-batch, accumulating gradients.

        Returns ``(loss_contribution, peak_bytes)`` where ``peak_bytes``
        is ``None`` without a device.  The autograd graph is released
        before returning — the point of output-layer partitioning — by
        reference counting alone: the tape holds no reference cycle
        (``tests/device/test_ledger_neutrality.py`` pins that), so
        dropping the three local roots frees every activation and the
        device ledger is back at parameter bytes without a collector
        pass.  The one place that still collects is the OOM re-plan path
        of :meth:`repro.core.api.BuffaloTrainer.run_iteration`, where a
        traceback pins the failed graph.
        """
        tracer = get_tracer()
        if self.device is not None:
            self.device.reset_peak()
        # Only documented protocol fields (blocks + seed_rows) are
        # touched here, so duck-typed micro-batches keep working.
        with tracer.span(
            "train.micro_batch",
            {
                "index": index,
                "n_output": int(len(mb.seed_rows)),
                "n_input": int(mb.blocks[0].n_src),
            },
        ) as mb_span:
            input_feats = self._load_features(
                dataset, node_map, mb.blocks[0], profiler
            )
            # One micro-batch = one bucket group: the kernel backend's
            # workspace arena lives across the whole forward+backward
            # (backward completes inside this block, so end_group —
            # after which scratch may be reused — is safe) and is
            # recycled by the next micro-batch.
            with profiler.phase("forward_backward_wall"), use_kernel_backend(
                self.kernel
            ):
                self.kernel.begin_group()
                try:
                    logits = self.model(mb.blocks, input_feats, cutoffs)
                    labels = dataset.labels[node_map[mb.blocks[-1].dst_nodes]]
                    partial = cross_entropy_with_logits(
                        logits, labels, reduction="sum"
                    ) * (1.0 / total_outputs)
                    partial.backward()
                    loss_value = partial.item()
                finally:
                    self.kernel.end_group()
            # Canonical accumulation semantics: each micro-batch's
            # contribution is snapshot under its schedule index and the
            # gradients are re-zeroed, so finish_iteration's ordered
            # reduction is bit-identical no matter which device (or how
            # many) executed the micro-batches.
            self._contributions.record(
                index, self.model.parameters(), loss_value
            )
            self.model.zero_grad()
            self._simulate_compute(mb.blocks, profiler)
            peak = None
            if self.device is not None:
                peak = self.device.peak_bytes
                mb_span.set_attr("peak_bytes", peak)
            if self.timeline is not None:
                self.timeline.sample("micro_batch")
        # Release the autograd graph (activations) before the next
        # micro-batch: these three names are its only roots and the
        # tape has no cycles, so refcounting frees it right here.
        del logits, partial, input_feats
        return loss_value, peak

    def finish_iteration(
        self,
        reduced: list[np.ndarray | None],
        micro_batch_peaks: list[int],
        n_micro_batches: int,
        profiler: Profiler,
    ) -> TrainResult:
        """One optimizer step over the schedule-order-reduced gradients.

        ``reduced`` is :meth:`GradientContributions.reduced` of the
        (shared) contributions; each replica installs its own copies,
        tracked on its device (they are part of real training's memory
        peak), so replicas never alias buffers.
        """
        for p, grad in zip(self.model.parameters(), reduced):
            p.grad = None if grad is None else grad.copy()
            if p.grad is not None and p.device is not None:
                p.device.track(p.grad)
        with profiler.phase("optimizer_step"):
            self.optimizer.step()

        loss = self._contributions.reduced_loss()
        if not np.isfinite(loss):
            raise ConvergenceError(f"non-finite loss: {loss}")

        return TrainResult(
            loss=loss,
            peak_bytes=max(micro_batch_peaks, default=0),
            n_micro_batches=n_micro_batches,
            micro_batch_peaks=micro_batch_peaks,
            profiler=profiler,
        )

    # ------------------------------------------------------------------
    def train_iteration(
        self,
        dataset: Dataset,
        node_map: np.ndarray,
        micro_batches: list,
        cutoffs: list[int],
        *,
        profiler: Profiler | None = None,
    ) -> TrainResult:
        """One full iteration: all micro-batches, then one optimizer step.

        Args:
            dataset: supplies features and labels (host side).
            node_map: batch-local -> dataset-global node ids.
            micro_batches: :class:`~repro.core.microbatch.MicroBatch`
                list (or any objects with ``blocks``, ``seed_rows`` and
                ``n_output``).
            cutoffs: per-layer bucketing cut-offs aligned with blocks
                (input-most first).
            profiler: phase accumulator (created when omitted).
        """
        return train_groups(
            [self],
            dataset,
            node_map,
            micro_batches,
            cutoffs,
            profiler or Profiler(),
        )


def train_groups(
    trainers: list[MicroBatchTrainer],
    dataset: Dataset,
    node_map: np.ndarray,
    groups: Sequence,
    cutoffs: list[int],
    profiler: Profiler,
    *,
    batch: SampledBatch | None = None,
    assignments: list[int] | None = None,
) -> TrainResult:
    """The one iteration loop (Algorithm 2) over a fleet of replicas.

    With ``batch``, ``groups`` are the schedule's bucket groups and each
    is materialized into its micro-batch (fast block generation, under
    the ``block_generation`` phase) right before it trains; nothing
    keeps the micro-batches, so none outlives the call.  Without,
    ``groups`` are ready micro-batches.  ``assignments[i]`` is
    the replica that trains group ``i`` (all on replica 0 when omitted).

    Groups run in schedule order whatever their placement, every
    replica records into one shared :class:`GradientContributions`, and
    every replica installs the same schedule-order reduction before its
    optimizer step — so the result is bit-for-bit the single-device one.
    Returns replica 0's :class:`TrainResult` (per-micro-batch peaks in
    schedule order).
    """
    total_outputs = sum(group.n_output for group in groups)
    if total_outputs == 0:
        raise ConvergenceError("no output nodes to train on")
    contributions = GradientContributions()
    for trainer in trainers:
        trainer.begin_iteration(contributions)
    peaks: list[int] = []
    for index, group in enumerate(groups):
        mb = group
        if batch is not None:
            with profiler.phase("block_generation", {"index": index}):
                mb = materialize_micro_batch(batch, group)
        trainer = trainers[0 if assignments is None else assignments[index]]
        _, peak = trainer.train_micro_batch(
            dataset,
            node_map,
            mb,
            cutoffs,
            total_outputs,
            profiler,
            index=index,
        )
        if peak is not None:
            peaks.append(peak)
    reduced = contributions.reduced()
    results = [
        trainer.finish_iteration(reduced, peaks, len(groups), profiler)
        for trainer in trainers
    ]
    return results[0]
