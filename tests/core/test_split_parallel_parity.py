"""Differential parity: one trainer, any fleet size, either placement policy.

The paper's full-batch gradient-parity invariant (§IV-B) extends to a
device fleet by construction: every replica records each micro-batch's
gradient contribution under its schedule index and installs the same
ascending-index reduction (:class:`repro.core.GradientContributions`).
These tests pin the strong form of the claim — on a *shared* schedule
(same K), losses, gradients, and post-step weights are **bit-for-bit**
equal across

* :class:`~repro.core.BuffaloTrainer` on a bare ``SimulatedGPU``,
* the ``data`` placement policy on a fleet of N devices, and
* the ``split`` placement policy on a fleet of N devices,

for N in {1, 2} in tier-1 and N=4 in the nightly ``slow`` sweep, over
multiple optimizer steps — and under every execution feature the fleet
composes with (fused kernels, out-of-core store, OOM re-planning).
Against a *different* schedule (true full-batch K=1) only
rtol-closeness holds — float addition is not associative across
grouping changes.
"""

import numpy as np
import pytest

from repro.bench.workloads import budget_bytes
from repro.core import BuffaloTrainer
from repro.datasets import load
from repro.device import DeviceFleet, SimulatedGPU
from repro.errors import ReproError
from repro.gnn.footprint import ModelSpec
from repro.store import FeatureStore, build_store, open_store_dataset

FANOUTS = [5, 5]
N_SEEDS = 60


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def spec(dataset):
    return ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")


@pytest.fixture(scope="module")
def seeds(dataset):
    return dataset.train_nodes[:N_SEEDS]


@pytest.fixture(scope="module")
def budget(dataset):
    return budget_bytes(dataset, 24)


def probe_constraint(dataset, spec, seeds, budget, **knobs):
    """A memory constraint forcing K >= 4 on this batch.

    Every fleet size in {1, 2, 4} then executes the *same* schedule —
    the precondition for bit-for-bit parity.  ``knobs`` must include
    the kernel backend the compared trainers run (fused plans against
    a smaller live set).
    """
    probe = BuffaloTrainer(
        dataset,
        spec,
        SimulatedGPU(capacity_bytes=budget),
        fanouts=FANOUTS,
        seed=0,
        memory_constraint=float("inf"),
        **knobs,
    )
    _, _, plan, _ = probe._plan_batch(seeds)
    return 1.15 * sum(plan.estimated_bytes) / 4


@pytest.fixture(scope="module")
def constraint(dataset, spec, seeds, budget):
    return probe_constraint(dataset, spec, seeds, budget)


def make(dataset, spec, budget, constraint, n=None, parallel="data", **knobs):
    """``n=None``: a bare GPU; else a fleet of ``n`` under ``parallel``."""
    device = (
        SimulatedGPU(capacity_bytes=budget)
        if n is None
        else DeviceFleet(n, capacity_bytes=budget)
    )
    return BuffaloTrainer(
        dataset,
        spec,
        device,
        fanouts=FANOUTS,
        seed=0,
        memory_constraint=constraint,
        parallel=parallel,
        **knobs,
    )


def assert_states_equal(a, b, context):
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), f"{context}: {key}"


def assert_grads_equal(a, b, context):
    for i, (pa, pb) in enumerate(zip(a.parameters(), b.parameters())):
        if pa.grad is None:
            assert pb.grad is None, f"{context}: param {i}"
            continue
        assert np.array_equal(pa.grad, pb.grad), f"{context}: param {i}"


def run_lockstep(reference, others, seeds, iterations=3):
    """Run all trainers the same iterations; assert bitwise parity.

    Every replica of every fleet is compared, so this also pins that
    replicas stay synchronized step after step.
    """
    for it in range(iterations):
        ref = reference.run_iteration(seeds)
        assert ref.n_micro_batches >= 4
        for name, trainer in others.items():
            report = trainer.run_iteration(seeds)
            context = f"{name} iteration {it}"
            assert report.result.loss == ref.result.loss, context
            assert (
                report.n_micro_batches == ref.n_micro_batches
            ), context
            for replica in trainer.trainers:
                assert_grads_equal(reference.model, replica.model, context)
                assert_states_equal(reference.model, replica.model, context)


def fleets(dataset, spec, budget, constraint, n, **knobs):
    return {
        f"{parallel}{n}": make(
            dataset, spec, budget, constraint, n, parallel, **knobs
        )
        for parallel in ("data", "split")
    }


class TestBitwiseParity:
    @pytest.mark.parametrize("n", [1, 2])
    def test_data_and_split_match_single_device(
        self, dataset, spec, seeds, budget, constraint, n
    ):
        run_lockstep(
            make(dataset, spec, budget, constraint),
            fleets(dataset, spec, budget, constraint, n),
            seeds,
        )

    @pytest.mark.slow
    def test_n4_matrix(self, dataset, spec, seeds, budget, constraint):
        """Nightly matrix: N=4 under both policies vs single-device."""
        run_lockstep(
            make(dataset, spec, budget, constraint),
            fleets(dataset, spec, budget, constraint, 4),
            seeds,
        )


class TestFleetComposesWithExecutionFeatures:
    """The combinations the CLI rejected until there was one trainer."""

    def test_fused_kernels_n2(self, dataset, spec, seeds, budget):
        knobs = {"kernel_backend": "fused"}
        constraint = probe_constraint(
            dataset, spec, seeds, budget, kernel_backend="fused"
        )
        others = fleets(dataset, spec, budget, constraint, 2, **knobs)
        run_lockstep(
            make(dataset, spec, budget, constraint, **knobs), others, seeds
        )
        # Replicas share the one backend singleton.
        for trainer in others.values():
            kernels = {id(t.kernel) for t in trainer.trainers}
            assert len(kernels) == 1
            assert trainer.trainers[0].kernel.name == "fused"

    def test_store_backed_under_host_budget_n2(
        self, tmp_path, dataset, spec, seeds, budget, constraint
    ):
        build_store(dataset, tmp_path / "ds.store", shard_rows=64)
        host_budget = dataset.features.nbytes // 2

        def store_dataset():
            return open_store_dataset(
                tmp_path / "ds.store",
                hot_cache_bytes=host_budget // 8,
                host_budget_bytes=host_budget,
            )

        others = {
            f"{parallel}2": make(
                store_dataset(), spec, budget, constraint, 2, parallel
            )
            for parallel in ("data", "split")
        }
        # Reference: the in-memory dataset on one device.
        run_lockstep(
            make(dataset, spec, budget, constraint), others, seeds
        )
        for trainer in others.values():
            assert isinstance(trainer.store, FeatureStore)
            assert trainer.store.peak_resident_bytes <= host_budget
            assert trainer.store.bytes_read > 0

    def test_timeline_samples_every_replica(
        self, dataset, spec, seeds, budget, constraint
    ):
        trainer = make(dataset, spec, budget, constraint, 2, "split")
        timeline = trainer.attach_timeline()
        report = trainer.run_iteration(seeds)
        labels = [s.label for s in timeline.samples]
        assert labels.count("micro_batch") == report.n_micro_batches
        assert set(report.assignments) == {0, 1}

    def test_oom_replan_on_two_devices(self, dataset, budget):
        """An over-optimistic constraint OOMs a fleet member; the
        iteration is re-planned under a tightened constraint and still
        matches the single device that went through the same re-plan."""
        spec = ModelSpec(dataset.feat_dim, 32, dataset.n_classes, 2, "lstm")
        seeds = dataset.train_nodes[:N_SEEDS]
        probe = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=10**13),
            fanouts=[6, 6],
            seed=0,
        )
        # Below half the one-group peak: even the split policy's K = N
        # regrouping of the (over-optimistic) K = 1 plan overshoots.
        capacity = int(probe.run_iteration(seeds).result.peak_bytes * 0.35)

        def trainer(device, parallel):
            return BuffaloTrainer(
                dataset,
                spec,
                device,
                fanouts=[6, 6],
                seed=0,
                memory_constraint=3.0 * capacity,
                parallel=parallel,
            )

        single = trainer(SimulatedGPU(capacity_bytes=capacity), "data")
        ref = single.run_iteration(seeds)
        assert single.scheduler.memory_constraint < 3.0 * capacity
        for parallel in ("data", "split"):
            fleet = trainer(
                DeviceFleet(2, capacity_bytes=capacity), parallel
            )
            report = fleet.run_iteration(seeds)
            assert np.isfinite(report.result.loss)
            assert (
                fleet.scheduler.memory_constraint < 3.0 * capacity
            ), parallel
            assert max(report.per_device_peaks) <= capacity
            if report.n_micro_batches == ref.n_micro_batches:
                assert report.result.loss == ref.result.loss
            else:
                np.testing.assert_allclose(
                    report.result.loss, ref.result.loss, rtol=1e-5
                )
            for replica in fleet.trainers[1:]:
                assert_states_equal(fleet.model, replica.model, parallel)

    def test_unknown_policy_rejected(self, dataset, spec, budget, constraint):
        with pytest.raises(ReproError, match="parallel"):
            make(dataset, spec, budget, constraint, 2, "model")


class TestIterationReport:
    def test_fleet_accounting(self, dataset, spec, seeds, budget, constraint):
        for parallel in ("data", "split"):
            trainer = make(dataset, spec, budget, constraint, 2, parallel)
            report = trainer.run_iteration(seeds)
            assert len(report.per_device_peaks) == 2
            assert all(p > 0 for p in report.per_device_peaks)
            assert max(report.per_device_peaks) == report.result.peak_bytes
            assert len(report.assignments) == report.n_micro_batches
            assert report.sim_time_s > 0
            assert report.comm_time_s > 0
            assert report.allreduce_bytes == spec.param_bytes()
        # Only the split policy moves feature rows between devices.
        assert report.halo_bytes > 0 and report.halo_exchange_s > 0
        assert report.placement.assignments == report.assignments

    def test_data_policy_is_round_robin_without_halo(
        self, dataset, spec, seeds, budget, constraint
    ):
        report = make(
            dataset, spec, budget, constraint, 2, "data"
        ).run_iteration(seeds)
        assert report.assignments == [
            i % 2 for i in range(report.n_micro_batches)
        ]
        assert report.placement is None
        assert report.halo_bytes == 0

    def test_peak_split_across_devices(self, dataset, seeds, budget):
        """With K >= 2, each device's peak is at most the 1-device peak."""
        spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "lstm")
        constraint = probe_constraint(dataset, spec, seeds, budget)
        single = make(dataset, spec, budget, constraint, 1).run_iteration(
            seeds
        )
        dual = make(dataset, spec, budget, constraint, 2).run_iteration(seeds)
        assert single.n_micro_batches >= 2
        assert max(dual.per_device_peaks) <= max(single.per_device_peaks)

    def test_loss_decreases_on_a_fleet(
        self, dataset, spec, seeds, budget, constraint
    ):
        trainer = make(dataset, spec, budget, constraint, 2, "data", lr=1e-2)
        losses = trainer.train_epochs(8, seeds)
        assert losses[-1] < losses[0]


class TestDegenerateFleet:
    @pytest.mark.parametrize("parallel", ["data", "split"])
    def test_n1_has_no_interconnect_traffic(
        self, dataset, spec, seeds, budget, constraint, parallel
    ):
        report = make(
            dataset, spec, budget, constraint, 1, parallel
        ).run_iteration(seeds)
        assert report.halo_bytes == 0
        assert report.allreduce_bytes == 0
        assert report.comm_time_s == 0.0
        assert report.assignments == [0] * report.n_micro_batches
        if parallel == "split":
            assert all(s.size == 0 for s in report.placement.halo_sets)

    def test_bare_gpu_is_priced_as_host_transfer(
        self, dataset, spec, seeds, budget, constraint
    ):
        """A bare SimulatedGPU is the N = 1 fleet under the data policy:
        same device clock as an explicit one-device data fleet, while
        the split policy prices the same rows as local shard reads."""
        bare = make(dataset, spec, budget, constraint)
        data1 = make(dataset, spec, budget, constraint, 1, "data")
        split1 = make(dataset, spec, budget, constraint, 1, "split")
        for trainer in (bare, data1, split1):
            trainer.run_iteration(seeds)
        assert bare.fleet.n_devices == 1
        assert bare.device.sim_time_s == data1.device.sim_time_s
        assert bare.device.bytes_loaded == data1.device.bytes_loaded > 0
        assert split1.device.bytes_loaded == 0
        assert split1.device.sim_time_s < bare.device.sim_time_s


class TestFullBatchCloseness:
    def test_split_close_to_full_batch(
        self, dataset, spec, seeds, budget, constraint
    ):
        """Different schedules (K=1 vs K>1) agree only to rtol."""
        full = make(dataset, spec, budget, float("inf"))
        split = make(dataset, spec, budget, constraint, 2, "split")
        ref = full.run_iteration(seeds)
        report = split.run_iteration(seeds)
        assert ref.n_micro_batches == 1
        assert report.n_micro_batches >= 4
        np.testing.assert_allclose(
            report.result.loss, ref.result.loss, rtol=1e-5
        )
        for pa, pb in zip(
            full.model.parameters(), split.model.parameters()
        ):
            np.testing.assert_allclose(
                pa.data, pb.data, rtol=1e-4, atol=1e-7
            )
