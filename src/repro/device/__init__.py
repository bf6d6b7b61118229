"""Simulated GPU substrate.

The paper's experiments run on an NVIDIA RTX 6000 (24 GB) and an A100
(80 GB).  This package substitutes a *byte-accurate allocation ledger*
with a hard capacity (:class:`SimulatedGPU`) plus an analytic kernel /
transfer cost model calibrated to those parts (:mod:`costmodel`).

Two accounting paths feed the same ledger:

* **concrete** — every numpy buffer a :class:`~repro.tensor.Tensor`
  creates on the device is registered via :meth:`SimulatedGPU.track`;
  buffer lifetime is Python object lifetime, which mirrors a framework
  keeping activations alive until ``backward()`` releases the graph.
* **symbolic** — :meth:`SimulatedGPU.alloc` / :meth:`SimulatedGPU.free`
  record allocations without creating arrays, used by the footprint
  planner to sweep configurations far larger than CPU memory allows.

Both raise :class:`~repro.errors.DeviceOutOfMemoryError` when the budget
is exceeded, reproducing CUDA OOM semantics.
"""

from repro.device.memory import MemoryTracker
from repro.device.device import SimulatedGPU
from repro.device.costmodel import (
    A100_80GB,
    DeviceSpec,
    GPUSpec,
    NVLINK_A100,
    PCIE_RTX6000,
    RTX6000_24GB,
    kernel_time,
    link_time,
    transfer_time,
)
from repro.device.feature_cache import FeatureCache
from repro.device.fleet import DeviceFleet
from repro.device.profiler import Profiler

__all__ = [
    "FeatureCache",
    "MemoryTracker",
    "SimulatedGPU",
    "DeviceFleet",
    "DeviceSpec",
    "GPUSpec",
    "RTX6000_24GB",
    "A100_80GB",
    "PCIE_RTX6000",
    "NVLINK_A100",
    "kernel_time",
    "link_time",
    "transfer_time",
    "Profiler",
]
