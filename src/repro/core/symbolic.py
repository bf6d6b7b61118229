"""Symbolic execution: replay an iteration's memory/compute without arrays.

The paper's largest configurations (fanout 800, hidden 1024, 24 GB
budgets) cannot run concretely on a CPU box, but their *memory events*
can: this module replays the exact allocation/kernel sequence of
:class:`~repro.core.trainer.MicroBatchTrainer` against a
:class:`~repro.device.SimulatedGPU` using the calibrated analytic
footprints (validated within ±20% of the concrete ledger by
``tests/gnn/test_footprint.py``).  OOM semantics are identical: an
over-budget micro-batch raises
:class:`~repro.errors.DeviceOutOfMemoryError` from the device ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.device import SimulatedGPU
from repro.device.profiler import Profiler
from repro.errors import DeviceError
from repro.gnn.block import Block
from repro.gnn.footprint import (
    ModelSpec,
    input_feature_bytes,
    layer_footprint,
    model_layer_footprints,
    training_dram_bytes,
    training_flops,
    working_set_bytes,
)


@dataclass
class SymbolicResult:
    """Outcome of one symbolic iteration."""

    peak_bytes: int
    sim_time_s: float
    n_micro_batches: int
    profiler: Profiler


class SymbolicTrainer:
    """Replays training iterations as alloc/kernel/free event sequences.

    Args:
        spec: the workload description.
        device: the budgeted simulated GPU.
        padded: model PyG-style padded aggregation instead of bucketed
            (every destination row is charged at the block's max degree).
    """

    def __init__(
        self,
        spec: ModelSpec,
        device: SimulatedGPU,
        *,
        padded: bool = False,
    ) -> None:
        self.spec = spec
        self.device = device
        self.padded = padded
        # Parameters + their gradients persist across the run.
        self._param_handle = device.alloc(2 * spec.param_bytes())

    def close(self) -> None:
        """Release the persistent parameter allocation."""
        if self._param_handle is not None:
            self.device.free(self._param_handle)
            self._param_handle = None

    # ------------------------------------------------------------------
    def _layer_footprints(self, blocks: list[Block]):
        if not self.padded:
            return model_layer_footprints(blocks, self.spec)
        footprints = []
        for i, (block, (f_in, f_out)) in enumerate(
            zip(blocks, self.spec.layer_dims())
        ):
            max_d = int(block.degrees.max(initial=0))
            histogram = {max_d: block.n_dst} if max_d else {0: block.n_dst}
            # Padded aggregation materializes the full (n_dst, max_d, f)
            # tensor plus its masked product, so the gather is charged at
            # every layer (input_requires_grad=True keeps it in the
            # formula even for the leaf layer).
            footprints.append(
                layer_footprint(
                    histogram,
                    f_in,
                    f_out,
                    self.spec.aggregator,
                    self.spec.hidden_dim,
                    input_requires_grad=True,
                )
            )
        return footprints

    def iterate(
        self,
        micro_batch_blocks: list[list[Block]],
        *,
        profiler: Profiler | None = None,
    ) -> SymbolicResult:
        """Replay one iteration over the given micro-batch block chains.

        Raises:
            DeviceOutOfMemoryError: when any micro-batch's working set
                exceeds the device budget.
        """
        if not micro_batch_blocks:
            raise DeviceError("symbolic iteration needs at least one micro-batch")
        profiler = profiler or Profiler()
        self.device.reset_peak()
        for blocks in micro_batch_blocks:
            input_bytes = input_feature_bytes(
                blocks[0].n_src, self.spec.in_dim
            )
            profiler.add_sim("data_loading", self.device.load(input_bytes))
            footprints = self._layer_footprints(blocks)
            working = input_bytes + working_set_bytes(footprints)
            handle = self.device.alloc(int(working))
            duration = self.device.run_kernel(
                training_flops(footprints),
                training_dram_bytes(footprints),
            )
            profiler.add_sim("gpu_compute", duration)
            self.device.free(handle)
        return SymbolicResult(
            peak_bytes=self.device.peak_bytes,
            sim_time_s=self.device.sim_time_s,
            n_micro_batches=len(micro_batch_blocks),
            profiler=profiler,
        )
