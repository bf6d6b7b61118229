"""Analytic GPU timing model.

GPU kernels are either compute-bound (FLOPs / peak throughput) or
memory-bound (bytes moved / memory bandwidth); the roofline maximum of the
two plus a fixed launch overhead is the standard first-order kernel model.
Host-to-device traffic goes over PCIe at its own bandwidth.

The constants below are the published specs of the paper's hardware
de-rated to realistic attained fractions (GNN message-passing kernels are
far from peak).  Every experiment's "GPU compute time" and "data loading
time" come from these functions; CPU-side phases (scheduling,
partitioning, block generation) are measured with real wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GiB


@dataclass(frozen=True)
class GPUSpec:
    """Hardware constants for one GPU model.

    Attributes:
        name: human-readable model name.
        flops: attainable FP32 throughput, FLOP/s.
        mem_bandwidth: attainable device-memory bandwidth, B/s.
        pcie_bandwidth: attainable host->device bandwidth, B/s.
        kernel_launch_s: fixed per-kernel launch overhead, seconds.
        capacity_bytes: device memory size, bytes.
    """

    name: str
    flops: float
    mem_bandwidth: float
    pcie_bandwidth: float
    kernel_launch_s: float
    capacity_bytes: int


#: Quadro RTX 6000: 16.3 TFLOP/s peak FP32, 672 GB/s GDDR6, PCIe 3 x16.
#: De-rated to ~40% attained compute and ~70% attained bandwidth.
RTX6000_24GB = GPUSpec(
    name="RTX6000",
    flops=6.5e12,
    mem_bandwidth=470e9,
    pcie_bandwidth=12e9,
    kernel_launch_s=5e-6,
    capacity_bytes=24 * GiB,
)

#: A100 80GB: 19.5 TFLOP/s peak FP32, 2039 GB/s HBM2e, PCIe 4 x16.
A100_80GB = GPUSpec(
    name="A100",
    flops=7.8e12,
    mem_bandwidth=1400e9,
    pcie_bandwidth=24e9,
    kernel_launch_s=5e-6,
    capacity_bytes=80 * GiB,
)


@dataclass(frozen=True)
class DeviceSpec:
    """One device of a fleet: a GPU plus its inter-device link.

    The link's bandwidth and per-message latency live here so that
    collectives and halo exchanges price messages consistently.

    Attributes:
        gpu: the compute/memory/PCIe constants of the device itself.
        interconnect_bandwidth: attainable device-to-device bandwidth,
            B/s; ``None`` falls back to the GPU's PCIe bandwidth (the
            paper's §V-G setup, where GPUs peer over the PCIe switch).
        interconnect_latency_s: fixed per-message link latency, seconds
            (the constant formerly hardcoded as ``20e-6``).
    """

    gpu: GPUSpec = RTX6000_24GB
    interconnect_bandwidth: float | None = None
    interconnect_latency_s: float = 20e-6

    @property
    def link_bandwidth(self) -> float:
        """Effective device-to-device bandwidth, B/s."""
        if self.interconnect_bandwidth is not None:
            return self.interconnect_bandwidth
        return self.gpu.pcie_bandwidth


#: The paper's multi-GPU testbed: RTX 6000s peering over PCIe 3 x16.
PCIE_RTX6000 = DeviceSpec(gpu=RTX6000_24GB)

#: A100s over an NVLink-class link (~10x PCIe bandwidth, lower latency).
NVLINK_A100 = DeviceSpec(
    gpu=A100_80GB,
    interconnect_bandwidth=200e9,
    interconnect_latency_s=5e-6,
)


def kernel_time(spec: GPUSpec, flops: float, bytes_moved: float) -> float:
    """Roofline kernel duration: max(compute, memory) + launch overhead."""
    compute = flops / spec.flops
    memory = bytes_moved / spec.mem_bandwidth
    return max(compute, memory) + spec.kernel_launch_s


def transfer_time(spec: GPUSpec, nbytes: float) -> float:
    """Host-to-device copy duration over PCIe (plus a 10 µs setup)."""
    return nbytes / spec.pcie_bandwidth + 10e-6


def link_time(
    spec: DeviceSpec, nbytes: float, *, n_messages: int = 1
) -> float:
    """Device-to-device transfer duration over the interconnect.

    ``n_messages`` counts the fixed-latency round trips (one per peer
    for a halo gather, ``2 (n - 1)`` for a ring all-reduce).
    """
    return nbytes / spec.link_bandwidth + n_messages * (
        spec.interconnect_latency_s
    )
