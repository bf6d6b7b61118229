"""DeviceSpec link model and DeviceFleet clock/ledger semantics.

Regression anchor: the inter-GPU message latency used to be a hardcoded
``20e-6`` inside the all-reduce; it now lives in
:class:`~repro.device.costmodel.DeviceSpec`, so transfer costs must
scale with *both* the configured bandwidth and the configured latency.
"""

import pytest

from repro.device import (
    A100_80GB,
    DeviceFleet,
    DeviceSpec,
    NVLINK_A100,
    PCIE_RTX6000,
    RTX6000_24GB,
    link_time,
)
from repro.errors import DeviceError


class TestDeviceSpec:
    def test_default_latency_is_former_hardcoded_constant(self):
        assert DeviceSpec().interconnect_latency_s == 20e-6
        assert PCIE_RTX6000.interconnect_latency_s == 20e-6

    def test_link_bandwidth_falls_back_to_pcie(self):
        spec = DeviceSpec(gpu=RTX6000_24GB)
        assert spec.link_bandwidth == RTX6000_24GB.pcie_bandwidth

    def test_nvlink_overrides_bandwidth_and_latency(self):
        assert NVLINK_A100.gpu is A100_80GB
        assert NVLINK_A100.link_bandwidth > PCIE_RTX6000.link_bandwidth
        assert (
            NVLINK_A100.interconnect_latency_s
            < PCIE_RTX6000.interconnect_latency_s
        )

    def test_link_time_scales_with_bandwidth(self):
        slow = DeviceSpec(interconnect_bandwidth=1e9)
        fast = DeviceSpec(interconnect_bandwidth=4e9)
        nbytes = 10**8
        assert link_time(slow, nbytes) > link_time(fast, nbytes)
        # Latency held fixed: the difference is exactly the wire time.
        assert link_time(slow, nbytes) - link_time(fast, nbytes) == (
            pytest.approx(nbytes / 1e9 - nbytes / 4e9)
        )

    def test_link_time_scales_with_latency(self):
        quick = DeviceSpec(interconnect_latency_s=5e-6)
        laggy = DeviceSpec(interconnect_latency_s=50e-6)
        # Bandwidth held fixed: n messages cost n * latency more.
        for n_messages in (1, 4):
            delta = link_time(
                laggy, 1000, n_messages=n_messages
            ) - link_time(quick, 1000, n_messages=n_messages)
            assert delta == pytest.approx(n_messages * 45e-6)


class TestFleetConstruction:
    def test_requires_devices(self):
        with pytest.raises(DeviceError):
            DeviceFleet(0)

    def test_capacity_list_must_match_count(self):
        with pytest.raises(DeviceError):
            DeviceFleet(3, capacity_bytes=[1, 2])

    def test_per_device_capacities(self):
        fleet = DeviceFleet(2, capacity_bytes=[100, 200])
        assert [d.capacity for d in fleet.devices] == [100, 200]

    def test_bare_gpuspec_is_wrapped(self):
        fleet = DeviceFleet(2, spec=A100_80GB)
        assert fleet.spec.gpu is A100_80GB
        assert fleet.interconnect_latency_s == 20e-6

    def test_spec_sets_the_interconnect(self):
        fleet = DeviceFleet(2, spec=DeviceSpec(interconnect_bandwidth=5e9))
        assert fleet.interconnect_bandwidth == 5e9

    def test_of_wraps_an_existing_device(self):
        from repro.device import SimulatedGPU

        device = SimulatedGPU(capacity_bytes=1 << 20)
        fleet = DeviceFleet.of(device)
        assert fleet.devices == [device]
        assert fleet.allreduce(10**9) == 0.0
        device.run_kernel(1e12, 0)
        assert fleet.sim_time_s == device.sim_time_s


class TestFleetCommunication:
    def test_single_device_allreduce_free(self):
        fleet = DeviceFleet(1)
        assert fleet.allreduce(10**9) == 0.0
        assert fleet.allreduce_bytes == 0

    def test_allreduce_scales_with_bytes(self):
        fleet = DeviceFleet(2)
        assert fleet.allreduce(10**9) > fleet.allreduce(10**6)

    def test_allreduce_scales_with_bandwidth(self):
        slow = DeviceFleet(2, spec=DeviceSpec(interconnect_bandwidth=1e9))
        fast = DeviceFleet(2, spec=DeviceSpec(interconnect_bandwidth=8e9))
        assert slow.allreduce(10**8) > fast.allreduce(10**8)

    def test_allreduce_scales_with_latency(self):
        quick = DeviceFleet(2, spec=DeviceSpec(interconnect_latency_s=5e-6))
        laggy = DeviceFleet(2, spec=DeviceSpec(interconnect_latency_s=500e-6))
        nbytes = 1000  # tiny payload: latency-dominated
        assert laggy.allreduce(nbytes) > quick.allreduce(nbytes)
        # 2 (n-1) ring steps at n=2 -> 2 messages of latency delta.
        delta = laggy.allreduce_time_s - quick.allreduce_time_s
        assert delta == pytest.approx(2 * 495e-6)

    def test_exchange_charges_receiving_device_only(self):
        fleet = DeviceFleet(3)
        duration = fleet.exchange(1, 10**6, n_peers=2)
        assert duration > 0
        assert fleet.devices[1].sim_time_s == pytest.approx(duration)
        assert fleet.devices[0].sim_time_s == 0.0
        assert fleet.halo_bytes == 10**6
        assert fleet.per_device_halo_bytes == [0, 10**6, 0]

    def test_exchange_validates_index_and_empty(self):
        fleet = DeviceFleet(2)
        with pytest.raises(DeviceError):
            fleet.exchange(2, 100)
        assert fleet.exchange(0, 0) == 0.0

    def test_shard_read_uses_memory_bandwidth(self):
        fleet = DeviceFleet(2)
        nbytes = 10**6
        duration = fleet.shard_read(0, nbytes)
        assert duration == pytest.approx(
            nbytes / fleet.spec.gpu.mem_bandwidth
        )
        # Local reads are far cheaper than crossing the link.
        assert duration < link_time(fleet.spec, nbytes)
        assert fleet.devices[0].sim_time_s == pytest.approx(duration)
        assert fleet.devices[1].sim_time_s == 0.0
        with pytest.raises(DeviceError):
            fleet.shard_read(5, 10)

    def test_sim_time_is_slowest_device_plus_allreduce(self):
        fleet = DeviceFleet(2)
        fleet.devices[0].run_kernel(1e12, 0)
        fleet.devices[1].run_kernel(2e12, 0)
        comm = fleet.allreduce(10**8)
        expected = fleet.devices[1].sim_time_s + comm
        assert fleet.sim_time_s == pytest.approx(expected)

    def test_reset_clock_clears_counters(self):
        fleet = DeviceFleet(2)
        fleet.allreduce(10**6)
        fleet.exchange(0, 10**6)
        fleet.reset_clock()
        assert fleet.sim_time_s == 0.0
        assert fleet.allreduce_bytes == 0
        assert fleet.halo_bytes == 0
        assert fleet.per_device_halo_bytes == [0, 0]
