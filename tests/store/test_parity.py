"""Acceptance: store-backed training == in-memory training, bit for bit.

An ``.npz`` dataset converted with ``repro store build`` must train to the
exact same per-epoch losses as the in-memory original, while the store's
peak resident feature bytes stay below a host budget that is smaller than
the full feature matrix.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core import BuffaloTrainer
from repro.datasets import open_dataset, save_dataset
from repro.device import SimulatedGPU
from repro.gnn.footprint import ModelSpec
from repro.store import FeatureStore
from repro.training import TrainingLoop

# Small enough to force K > 1 micro-batches on cora@0.2, so no single
# gather materializes the whole batch's input cone at once.
DEVICE_BYTES = 100_000
HOST_BUDGET = 90_000


@pytest.fixture()
def built_store(tmp_path, cora):
    """cora -> .npz -> `repro store build`, exactly the documented path."""
    npz = tmp_path / "cora.npz"
    save_dataset(npz, cora)
    dest = tmp_path / "cora.store"
    assert main(["store", "build", str(npz), str(dest), "--shard-rows", "64"]) == 0
    return dest


def _spec(dataset):
    return ModelSpec(dataset.feat_dim, 8, dataset.n_classes, 2, "mean")


def _iter_losses(dataset, n=3, **kw):
    trainer = BuffaloTrainer(
        dataset,
        _spec(dataset),
        SimulatedGPU(capacity_bytes=DEVICE_BYTES),
        fanouts=[4, 4],
        seed=0,
        **kw,
    )
    seeds = dataset.train_nodes[:40]
    reports = [trainer.run_iteration(seeds) for _ in range(n)]
    return [r.result.loss for r in reports], reports, trainer


def _epoch_losses(dataset, epochs=2, **kw):
    trainer = BuffaloTrainer(
        dataset,
        _spec(dataset),
        SimulatedGPU(capacity_bytes=DEVICE_BYTES),
        fanouts=[4, 4],
        seed=0,
        **kw,
    )
    loop = TrainingLoop(
        trainer=trainer, dataset=dataset, batch_size=40, seed=0
    )
    return [r.mean_loss for r in loop.run(epochs)], trainer


class TestLossParity:
    def test_iteration_losses_bitwise_equal(self, cora, built_store):
        mem_losses, mem_reports, _ = _iter_losses(cora)
        store_ds = open_dataset(
            built_store, hot_cache_bytes=20_000, host_budget_bytes=HOST_BUDGET
        )
        st_losses, st_reports, trainer = _iter_losses(store_ds)
        assert st_losses == mem_losses  # bit-for-bit, not approx
        assert [r.n_micro_batches for r in st_reports] == [
            r.n_micro_batches for r in mem_reports
        ]
        # The device constraint really did split the batch.
        assert all(r.n_micro_batches > 1 for r in st_reports)

    def test_epoch_losses_bitwise_equal(self, cora, built_store):
        mem_losses, _ = _epoch_losses(cora)
        store_ds = open_dataset(
            built_store, hot_cache_bytes=20_000, host_budget_bytes=HOST_BUDGET
        )
        st_losses, _ = _epoch_losses(store_ds)
        assert st_losses == mem_losses

    def test_plans_identical(self, cora, built_store):
        _, mem_reports, _ = _iter_losses(cora, n=1)
        store_ds = open_dataset(built_store, hot_cache_bytes=20_000)
        _, st_reports, _ = _iter_losses(store_ds, n=1)
        a, b = mem_reports[0].plan, st_reports[0].plan
        assert a.k == b.k
        for ga, gb in zip(a.groups, b.groups):
            np.testing.assert_array_equal(ga.rows, gb.rows)
            assert ga.estimated_bytes == gb.estimated_bytes


class TestHostBudgetHeld:
    def test_peak_resident_below_budget_below_full_matrix(
        self, cora, built_store
    ):
        store_ds = open_dataset(
            built_store, hot_cache_bytes=20_000, host_budget_bytes=HOST_BUDGET
        )
        store = store_ds.features
        assert isinstance(store, FeatureStore)
        _epoch_losses(store_ds)
        full_matrix = cora.features.nbytes
        assert HOST_BUDGET < full_matrix
        assert 0 < store.peak_resident_bytes <= HOST_BUDGET
        # Training actually exercised the store, not a materialized copy.
        assert store.gathers > 0
        assert store.disk_rows + store.hot_hits > 0
