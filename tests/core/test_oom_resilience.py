"""Failure injection: OOM mid-iteration triggers re-planning.

The memory estimator is analytical; if it is too optimistic for a
workload, the device OOMs during concrete execution.  BuffaloTrainer
must tighten the scheduling constraint and retry rather than crash.
"""

import gc

import numpy as np
import pytest

from repro.core import BuffaloTrainer
from repro.datasets import load
from repro.device import SimulatedGPU
from repro.errors import DeviceOutOfMemoryError
from repro.gnn.footprint import ModelSpec
from repro.obs.metrics import get_metrics


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


def _trainer(dataset, constraint_fraction, capacity=None):
    """Trainer whose scheduler believes it has MORE memory than exists.

    Setting the scheduling constraint above the device capacity
    guarantees the estimator's plan overshoots the real budget — the
    failure we are injecting.
    """
    spec = ModelSpec(dataset.feat_dim, 32, dataset.n_classes, 2, "lstm")
    if capacity is None:
        # Measure an untight peak first to pick a stressful capacity.
        probe_device = SimulatedGPU(capacity_bytes=10**13)
        probe = BuffaloTrainer(
            dataset, spec, probe_device, fanouts=[6, 6], seed=0
        )
        report = probe.run_iteration(dataset.train_nodes[:60])
        capacity = int(report.result.peak_bytes * 0.7)
    device = SimulatedGPU(capacity_bytes=capacity)
    return BuffaloTrainer(
        dataset,
        spec,
        device,
        fanouts=[6, 6],
        seed=0,
        memory_constraint=capacity * constraint_fraction,
    )


class TestOOMResilience:
    def test_overoptimistic_constraint_recovers(self, dataset):
        # Constraint set ABOVE capacity: the first plan must OOM, the
        # retry (tightened constraint -> more micro-batches) must pass.
        trainer = _trainer(dataset, constraint_fraction=3.0)
        report = trainer.run_iteration(dataset.train_nodes[:60])
        assert np.isfinite(report.result.loss)
        assert report.result.peak_bytes <= trainer.device.capacity
        # The constraint was tightened below its original value.
        assert (
            trainer.scheduler.memory_constraint
            < 3.0 * trainer.device.capacity
        )

    def test_retries_exhausted_raises(self, dataset):
        spec = ModelSpec(dataset.feat_dim, 32, dataset.n_classes, 2, "lstm")
        # Device so small even a single-node micro-batch cannot fit.
        device = SimulatedGPU(capacity_bytes=200_000)
        trainer = BuffaloTrainer(
            dataset,
            spec,
            device,
            fanouts=[6, 6],
            seed=0,
            memory_constraint=10**12,  # scheduler thinks all is fine
            k_max=4,
        )
        with pytest.raises(DeviceOutOfMemoryError):
            trainer.run_iteration(
                dataset.train_nodes[:60], max_oom_retries=1
            )

    def test_tightened_constraint_persists(self, dataset):
        trainer = _trainer(dataset, constraint_fraction=3.0)
        trainer.run_iteration(dataset.train_nodes[:60])
        tightened = trainer.scheduler.memory_constraint
        # The next iteration reuses the corrected constraint and should
        # not tighten further (it already fits).
        trainer.run_iteration(dataset.train_nodes[:60])
        assert trainer.scheduler.memory_constraint == tightened

    def test_no_retry_when_estimates_hold(self, dataset):
        trainer = _trainer(dataset, constraint_fraction=0.9, capacity=10**12)
        before = trainer.scheduler.memory_constraint
        trainer.run_iteration(dataset.train_nodes[:60])
        assert trainer.scheduler.memory_constraint == before


class TestCollectorCalls:
    """``gc.collect`` runs on the OOM re-plan path and nowhere else.

    A micro-batch releases its autograd graph by reference counting
    (tests/device/test_ledger_neutrality.py); only a failed iteration,
    whose traceback pins the graph, is worth a collector pass.
    """

    @pytest.fixture()
    def collects(self, monkeypatch):
        calls = []
        real = gc.collect

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gc, "collect", counting)
        return calls

    def test_successful_iteration_never_collects(self, dataset, collects):
        trainer = _trainer(dataset, constraint_fraction=0.5)
        report = trainer.run_iteration(dataset.train_nodes[:60])
        assert report.plan.k > 1
        assert collects == []

    def test_one_collect_per_retry_then_a_clean_ledger(
        self, dataset, collects
    ):
        trainer = _trainer(dataset, constraint_fraction=3.0)
        oom_retries = get_metrics().counter("buffalo.oom_retries")
        retries_before = oom_retries.value
        report = trainer.run_iteration(dataset.train_nodes[:60])
        retries = oom_retries.value - retries_before
        assert retries >= 1
        assert len(collects) == retries
        # Nothing of the failed attempts was still charged while the
        # re-planned one ran: a trainer that never failed, planning
        # under the same (tightened) constraint, peaks at the same byte.
        fresh = BuffaloTrainer(
            dataset,
            trainer.spec,
            SimulatedGPU(capacity_bytes=trainer.device.capacity),
            fanouts=[6, 6],
            seed=0,
            memory_constraint=trainer.scheduler.memory_constraint,
        )
        collects.clear()
        expected = fresh.run_iteration(dataset.train_nodes[:60])
        assert collects == []
        assert expected.plan.k == report.plan.k
        assert report.result.micro_batch_peaks == (
            expected.result.micro_batch_peaks
        )
