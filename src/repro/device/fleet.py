"""A fleet of simulated GPUs joined by a modeled interconnect.

:class:`DeviceFleet` is the device substrate of every Buffalo trainer
(a single GPU is the N = 1 fleet, :meth:`DeviceFleet.of`): per-device
compute clocks plus the interconnect both placement policies price
their traffic on:

* **per-device memory ledgers** — every member is a full
  :class:`~repro.device.device.SimulatedGPU` with its own capacity,
  allocation ledger, and kernel clock;
* **collectives** — :meth:`allreduce` prices a ring all-reduce of the
  gradient bytes (``2 (n-1)/n`` traffic per device, one link-latency
  charge per ring step) on the shared communication clock;
* **point-to-point exchange** — :meth:`exchange` prices a halo-feature
  gather *into one device* (bytes over the link plus one latency charge
  per peer contacted) and advances that device's own clock, so compute
  and halo traffic of different devices overlap while the all-reduce
  remains a barrier.

All devices share one :class:`~repro.device.costmodel.DeviceSpec`
(homogeneous fleet); per-device capacities may still differ via
``capacity_bytes``.
"""

from __future__ import annotations

from repro.device.costmodel import (
    DeviceSpec,
    GPUSpec,
    PCIE_RTX6000,
    link_time,
)
from repro.device.device import SimulatedGPU
from repro.errors import DeviceError

__all__ = ["DeviceFleet"]


class DeviceFleet:
    """``n_devices`` simulated GPUs plus one modeled interconnect.

    Args:
        n_devices: fleet size (>= 1).
        capacity_bytes: per-device memory budget — a single int applied
            to every device, a sequence of per-device ints, or ``None``
            for each device's spec capacity.
        spec: the fleet's :class:`DeviceSpec` (GPU + interconnect
            bandwidth and latency); a bare :class:`GPUSpec` is accepted
            and wrapped (PCIe-peered, default latency).
    """

    def __init__(
        self,
        n_devices: int,
        capacity_bytes: int | list[int] | None = None,
        *,
        spec: DeviceSpec | GPUSpec = PCIE_RTX6000,
    ) -> None:
        if n_devices < 1:
            raise DeviceError(f"need at least 1 device, got {n_devices}")
        if isinstance(spec, GPUSpec):
            spec = DeviceSpec(gpu=spec)
        self.spec = spec
        if capacity_bytes is None or isinstance(capacity_bytes, int):
            capacities = [capacity_bytes] * n_devices
        else:
            capacities = list(capacity_bytes)
            if len(capacities) != n_devices:
                raise DeviceError(
                    f"capacity_bytes lists one budget per device: got "
                    f"{len(capacities)} for {n_devices} devices"
                )
        self.devices = [
            SimulatedGPU(
                capacity, spec=spec.gpu, name=f"{spec.gpu.name}:{i}"
            )
            for i, capacity in enumerate(capacities)
        ]
        self.allreduce_time_s = 0.0
        self.allreduce_bytes = 0
        self.exchange_time_s = 0.0
        self.halo_bytes = 0
        self.per_device_halo_bytes = [0] * n_devices

    @classmethod
    def of(cls, device: SimulatedGPU) -> "DeviceFleet":
        """The N = 1 fleet over an existing device (no interconnect use)."""
        fleet = cls(1, spec=device.spec)
        fleet.devices = [device]
        return fleet

    # ------------------------------------------------------------------
    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def interconnect_bandwidth(self) -> float:
        return self.spec.link_bandwidth

    @property
    def interconnect_latency_s(self) -> float:
        return self.spec.interconnect_latency_s

    # ------------------------------------------------------------------
    # Memory (fleet-wide views over the per-device ledgers)
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Fleet-resident bytes: sum of the per-device ledgers."""
        return sum(d.live_bytes for d in self.devices)

    @property
    def peak_bytes(self) -> int:
        """Worst single-device peak (the capacity-relevant number)."""
        return max(d.peak_bytes for d in self.devices)

    @property
    def per_device_peaks(self) -> list[int]:
        return [d.peak_bytes for d in self.devices]

    def reset_peak(self) -> None:
        for d in self.devices:
            d.reset_peak()

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def allreduce(self, nbytes: int) -> float:
        """Ring all-reduce of ``nbytes`` across the fleet.

        Each device sends/receives ``2 (n-1)/n * nbytes`` over
        ``2 (n-1)`` ring steps, each step paying one link latency.
        Advances the shared communication clock (a barrier: every
        device waits for the reduce); returns the duration.
        """
        n = self.n_devices
        if n == 1:
            return 0.0
        traffic = 2.0 * (n - 1) / n * nbytes
        duration = link_time(self.spec, traffic, n_messages=2 * (n - 1))
        self.allreduce_time_s += duration
        self.allreduce_bytes += int(nbytes)
        return duration

    def shard_read(self, device_index: int, nbytes: float) -> float:
        """Read locally-owned feature rows from the device's own shard.

        Split-parallel training keeps the feature matrix partitioned
        device-resident, so owned rows cost device-memory bandwidth
        instead of a host->device transfer.  Advances the reading
        device's clock; returns the duration.
        """
        if not 0 <= device_index < self.n_devices:
            raise DeviceError(
                f"device index {device_index} out of range "
                f"(fleet of {self.n_devices})"
            )
        if nbytes <= 0:
            return 0.0
        duration = nbytes / self.spec.gpu.mem_bandwidth
        self.devices[device_index].sim_time_s += duration
        return duration

    def exchange(
        self, device_index: int, nbytes: float, *, n_peers: int = 1
    ) -> float:
        """Halo gather: pull ``nbytes`` from peers into one device.

        Charged to the receiving device's own clock (pull model — the
        gather overlaps with other devices' compute), one link-latency
        charge per peer contacted.  Returns the duration (0 for an
        empty gather).
        """
        if not 0 <= device_index < self.n_devices:
            raise DeviceError(
                f"device index {device_index} out of range "
                f"(fleet of {self.n_devices})"
            )
        if nbytes <= 0:
            return 0.0
        duration = link_time(self.spec, nbytes, n_messages=max(n_peers, 1))
        self.devices[device_index].sim_time_s += duration
        self.exchange_time_s += duration
        self.halo_bytes += int(nbytes)
        self.per_device_halo_bytes[device_index] += int(nbytes)
        return duration

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def sim_time_s(self) -> float:
        """Fleet makespan: slowest device plus the all-reduce barrier.

        Per-device clocks already include each device's own halo
        gathers, so exchange time overlaps across devices while the
        all-reduce serializes.
        """
        return max(d.sim_time_s for d in self.devices) + (
            self.allreduce_time_s
        )

    def reset_clock(self) -> None:
        for d in self.devices:
            d.reset_clock()
        self.allreduce_time_s = 0.0
        self.allreduce_bytes = 0
        self.exchange_time_s = 0.0
        self.halo_bytes = 0
        self.per_device_halo_bytes = [0] * self.n_devices

    def __repr__(self) -> str:
        return (
            f"DeviceFleet(n={self.n_devices}, gpu={self.spec.gpu.name}, "
            f"link={self.interconnect_bandwidth / 1e9:.0f}GB/s"
            f"+{self.interconnect_latency_s * 1e6:.0f}us)"
        )
