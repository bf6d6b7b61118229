"""The simulated GPU: a memory budget, an allocation ledger, a clock."""

from __future__ import annotations

import numpy as np

from repro.device.costmodel import GPUSpec, RTX6000_24GB, kernel_time, transfer_time
from repro.device.memory import MemoryTracker


class SimulatedGPU:
    """A GPU with a memory budget, an allocation ledger, and a clock.

    Args:
        capacity_bytes: memory budget; defaults to the spec's capacity.
            Experiments shrink this to model the paper's "memory budget"
            sweeps (Fig. 15).
        spec: hardware timing constants (defaults to the paper's RTX 6000).

    The simulated clock (:attr:`sim_time_s`) advances through
    :meth:`run_kernel` and :meth:`load` calls; CPU wall time is tracked by
    the caller's :class:`~repro.device.profiler.Profiler`.
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        *,
        spec: GPUSpec = RTX6000_24GB,
        name: str | None = None,
    ) -> None:
        self.spec = spec
        self.name = name or spec.name
        self.memory = MemoryTracker(
            spec.capacity_bytes if capacity_bytes is None else capacity_bytes
        )
        self.sim_time_s = 0.0
        self.kernel_count = 0
        self.bytes_loaded = 0

    # ------------------------------------------------------------------
    # Memory (delegation)
    # ------------------------------------------------------------------
    def track(self, array: np.ndarray) -> None:
        """Register a concrete tensor buffer with the ledger."""
        self.memory.track(array)

    def alloc(self, nbytes: int) -> int:
        """Symbolic allocation; see :class:`MemoryTracker`."""
        return self.memory.alloc(nbytes)

    def free(self, handle: int) -> None:
        self.memory.free(handle)

    @property
    def capacity(self) -> int | None:
        return self.memory.capacity

    @property
    def live_bytes(self) -> int:
        return self.memory.live_bytes

    @property
    def peak_bytes(self) -> int:
        return self.memory.peak_bytes

    def reset_peak(self) -> None:
        self.memory.reset_peak()

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def run_kernel(self, flops: float, bytes_moved: float) -> float:
        """Advance the clock by one kernel; returns its duration."""
        duration = kernel_time(self.spec, flops, bytes_moved)
        self.sim_time_s += duration
        self.kernel_count += 1
        return duration

    def load(self, nbytes: float) -> float:
        """Advance the clock by a host->device transfer."""
        duration = transfer_time(self.spec, nbytes)
        self.sim_time_s += duration
        self.bytes_loaded += int(nbytes)
        return duration

    def reset_clock(self) -> None:
        self.sim_time_s = 0.0
        self.kernel_count = 0
        self.bytes_loaded = 0

    def __repr__(self) -> str:
        cap = self.capacity
        cap_str = f"{cap / 2**30:.0f}GiB" if cap else "unlimited"
        return f"SimulatedGPU({self.name}, capacity={cap_str})"
