"""Tests for SimulatedGPU timing, cost model, and profiler."""

import time

import pytest

from repro.device import (
    A100_80GB,
    Profiler,
    RTX6000_24GB,
    SimulatedGPU,
    kernel_time,
    transfer_time,
)


class TestCostModel:
    def test_compute_bound_kernel(self):
        spec = RTX6000_24GB
        flops = spec.flops  # exactly one second of compute
        t = kernel_time(spec, flops, 0)
        assert t == pytest.approx(1.0, rel=1e-3)

    def test_memory_bound_kernel(self):
        spec = RTX6000_24GB
        nbytes = spec.mem_bandwidth  # one second of traffic
        t = kernel_time(spec, 0, nbytes)
        assert t == pytest.approx(1.0, rel=1e-3)

    def test_roofline_takes_max(self):
        spec = RTX6000_24GB
        t = kernel_time(spec, spec.flops, spec.mem_bandwidth * 2)
        assert t == pytest.approx(2.0, rel=1e-3)

    def test_launch_overhead_floors_tiny_kernels(self):
        t = kernel_time(RTX6000_24GB, 1, 1)
        assert t >= RTX6000_24GB.kernel_launch_s

    def test_transfer_time(self):
        spec = RTX6000_24GB
        t = transfer_time(spec, spec.pcie_bandwidth)
        assert t == pytest.approx(1.0, rel=1e-3)

    def test_a100_faster_than_rtx6000(self):
        flops, nbytes = 1e12, 1e10
        assert kernel_time(A100_80GB, flops, nbytes) < kernel_time(
            RTX6000_24GB, flops, nbytes
        )


class TestSimulatedGPU:
    def test_default_capacity_from_spec(self):
        gpu = SimulatedGPU()
        assert gpu.capacity == RTX6000_24GB.capacity_bytes

    def test_clock_advances(self):
        gpu = SimulatedGPU()
        gpu.run_kernel(1e9, 1e6)
        gpu.load(1e6)
        assert gpu.sim_time_s > 0
        assert gpu.kernel_count == 1
        assert gpu.bytes_loaded == 1_000_000

    def test_reset_clock(self):
        gpu = SimulatedGPU()
        gpu.run_kernel(1e9, 0)
        gpu.reset_clock()
        assert gpu.sim_time_s == 0
        assert gpu.kernel_count == 0

    def test_repr(self):
        assert "24GiB" in repr(SimulatedGPU())


class TestProfiler:
    def test_wall_phase(self):
        prof = Profiler()
        with prof.phase("work"):
            time.sleep(0.01)
        assert prof.phases["work"].wall_s >= 0.009
        assert prof.phases["work"].count == 1

    def test_sim_phase(self):
        prof = Profiler()
        prof.add_sim("gpu", 1.5)
        prof.add_sim("gpu", 0.5)
        assert prof.phases["gpu"].sim_s == pytest.approx(2.0)

    def test_total_and_breakdown(self):
        prof = Profiler()
        prof.add_sim("a", 1.0)
        prof.add_sim("b", 2.0)
        assert prof.total_s() == pytest.approx(3.0)
        assert prof.breakdown() == {"a": 1.0, "b": 2.0}

    def test_merge(self):
        a = Profiler()
        a.add_sim("x", 1.0)
        b = Profiler()
        b.add_sim("x", 2.0)
        b.add_sim("y", 1.0)
        a.merge(b)
        assert a.phases["x"].sim_s == pytest.approx(3.0)
        assert a.phases["y"].sim_s == pytest.approx(1.0)

    def test_phase_nesting_accumulates(self):
        prof = Profiler()
        for _ in range(3):
            with prof.phase("loop"):
                pass
        assert prof.phases["loop"].count == 3
