"""Tests for the training package: loader, eval, checkpoints, loop."""

import numpy as np
import pytest

from repro.bench.workloads import budget_bytes
from repro.core import BuffaloTrainer
from repro.core.api import build_model
from repro.datasets import load
from repro.device import SimulatedGPU
from repro.errors import ReproError
from repro.gnn.footprint import ModelSpec
from repro.training import (
    SeedBatchLoader,
    TrainingLoop,
    accuracy,
    evaluate,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def spec(dataset):
    return ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")


class TestSeedBatchLoader:
    def test_covers_all_nodes(self):
        loader = SeedBatchLoader(np.arange(25), 10, seed=0)
        seen = np.sort(np.concatenate(list(loader)))
        np.testing.assert_array_equal(seen, np.arange(25))

    def test_len(self):
        assert len(SeedBatchLoader(np.arange(25), 10)) == 3
        assert len(SeedBatchLoader(np.arange(25), 10, drop_last=True)) == 2
        assert len(SeedBatchLoader(np.arange(20), 10)) == 2

    def test_drop_last(self):
        loader = SeedBatchLoader(np.arange(25), 10, drop_last=True, seed=0)
        batches = list(loader)
        assert len(batches) == 2
        assert all(b.size == 10 for b in batches)

    def test_batches_sorted(self):
        loader = SeedBatchLoader(np.arange(30), 7, seed=1)
        for batch in loader:
            assert np.all(np.diff(batch) > 0)

    def test_epochs_differ_when_shuffled(self):
        loader = SeedBatchLoader(np.arange(40), 40, seed=0)
        first = next(iter(loader))
        second = next(iter(loader))
        # Same node set, and with shuffling the loader reshuffles each
        # epoch (full-set batches are equal after sorting).
        np.testing.assert_array_equal(first, second)
        assert loader.epochs_served == 2

    def test_no_shuffle_is_stable_order(self):
        loader = SeedBatchLoader(np.arange(10), 4, shuffle=False)
        batches = list(loader)
        np.testing.assert_array_equal(batches[0], [0, 1, 2, 3])

    def test_invalid_args_raise(self):
        with pytest.raises(ReproError):
            SeedBatchLoader(np.array([]), 4)
        with pytest.raises(ReproError):
            SeedBatchLoader(np.arange(3), 0)


class TestAccuracy:
    def test_perfect(self):
        logits = np.eye(3)
        assert accuracy(logits, np.array([0, 1, 2])) == 1.0

    def test_partial(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ReproError):
            accuracy(np.zeros((2, 2)), np.zeros(3, int))

    def test_empty_raises(self):
        with pytest.raises(ReproError):
            accuracy(np.zeros((0, 2)), np.zeros(0, int))


class TestEvaluate:
    def test_returns_fraction(self, dataset, spec):
        model = build_model(spec, rng=0)
        acc = evaluate(
            model, dataset, dataset.train_nodes[:50], [5, 5], seed=0
        )
        assert 0.0 <= acc <= 1.0

    def test_trained_model_beats_chance(self, dataset, spec):
        device = SimulatedGPU(capacity_bytes=budget_bytes(dataset, 24))
        trainer = BuffaloTrainer(
            dataset, spec, device, fanouts=[5, 5], seed=0
        )
        trainer.train_epochs(15, dataset.train_nodes[:80])
        acc = evaluate(
            trainer.model, dataset, dataset.train_nodes[:80], [5, 5]
        )
        assert acc > 2.0 / dataset.n_classes

    def test_empty_nodes_raise(self, dataset, spec):
        with pytest.raises(ReproError):
            evaluate(
                build_model(spec, rng=0),
                dataset,
                np.array([], dtype=np.int64),
                [5, 5],
            )


class TestCheckpoint:
    @pytest.mark.parametrize("name", ["ckpt.npz", "best.ckpt"])
    def test_roundtrip(self, tmp_path, spec, name):
        # The archive lands at exactly the given path, suffix or not.
        a = build_model(spec, rng=0)
        b = build_model(spec, rng=1)
        meta = save_and_load(tmp_path / name, a, b, {"epoch": 3})
        assert meta == {"epoch": 3}
        assert [f.name for f in tmp_path.iterdir()] == [name]
        for key, value in a.state_dict().items():
            np.testing.assert_array_equal(value, b.state_dict()[key])

    def test_truncated_file_names_the_path(self, tmp_path, spec):
        path = tmp_path / "best.ckpt"
        save_checkpoint(path, build_model(spec, rng=0))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ReproError, match="best.ckpt"):
            load_checkpoint(path, build_model(spec, rng=0))

    def test_foreign_archive_names_the_path(self, tmp_path, spec):
        path = tmp_path / "not_a_checkpoint.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(ReproError, match="not_a_checkpoint.npz"):
            load_checkpoint(path, build_model(spec, rng=0))

    def test_failed_write_keeps_previous_checkpoint(
        self, tmp_path, spec, monkeypatch
    ):
        path = tmp_path / "best.ckpt"
        good = build_model(spec, rng=0)
        save_checkpoint(path, good, metadata={"epoch": 1})

        def torn_savez(fh, **payload):
            fh.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, build_model(spec, rng=1))
        monkeypatch.undo()

        restored = build_model(spec, rng=2)
        assert load_checkpoint(path, restored) == {"epoch": 1}
        for key, value in good.state_dict().items():
            np.testing.assert_array_equal(value, restored.state_dict()[key])
        assert [f.name for f in tmp_path.iterdir()] == ["best.ckpt"]

    def test_missing_file_raises(self, tmp_path, spec):
        with pytest.raises(ReproError):
            load_checkpoint(tmp_path / "nope.npz", build_model(spec, rng=0))

    def test_shape_mismatch_raises(self, tmp_path, dataset, spec):
        model = build_model(spec, rng=0)
        save_checkpoint(tmp_path / "c.npz", model)
        other_spec = ModelSpec(
            dataset.feat_dim, 8, dataset.n_classes, 2, "mean"
        )
        with pytest.raises(ReproError):
            load_checkpoint(tmp_path / "c.npz", build_model(other_spec))

    def test_creates_parent_dirs(self, tmp_path, spec):
        path = tmp_path / "nested" / "dir" / "c.npz"
        save_checkpoint(path, build_model(spec, rng=0))
        assert path.exists()


def save_and_load(path, source, target, metadata):
    save_checkpoint(path, source, metadata=metadata)
    return load_checkpoint(path, target)


class TestTrainingLoop:
    def _loop(self, dataset, spec, tmp_path=None, **kwargs):
        device = SimulatedGPU(capacity_bytes=budget_bytes(dataset, 24))
        trainer = BuffaloTrainer(
            dataset, spec, device, fanouts=[5, 5], seed=0
        )
        return TrainingLoop(
            trainer=trainer,
            dataset=dataset,
            batch_size=40,
            **kwargs,
        )

    def test_history_collected(self, dataset, spec):
        loop = self._loop(dataset, spec)
        history = loop.run(2)
        assert len(history) == 2
        assert history[0].n_batches == len(
            SeedBatchLoader(dataset.train_nodes, 40)
        )
        assert history[0].total_micro_batches >= history[0].n_batches

    def test_loss_decreases_over_epochs(self, dataset, spec):
        loop = self._loop(dataset, spec)
        history = loop.run(4)
        assert history[-1].mean_loss < history[0].mean_loss

    def test_validation_and_checkpoint(self, dataset, spec, tmp_path):
        path = tmp_path / "best.npz"
        loop = self._loop(
            dataset,
            spec,
            val_nodes=dataset.train_nodes[:30],
            checkpoint_path=path,
        )
        history = loop.run(2)
        assert all(r.val_accuracy is not None for r in history)
        assert path.exists()
        meta = load_checkpoint(path, build_model(spec, rng=5))
        assert "val_accuracy" in meta

    def test_early_stopping(self, dataset, spec):
        loop = self._loop(
            dataset,
            spec,
            val_nodes=dataset.train_nodes[:20],
            patience=0,
        )
        history = loop.run(10)
        assert len(history) <= 10

    def test_invalid_epochs_raise(self, dataset, spec):
        with pytest.raises(ReproError):
            self._loop(dataset, spec).run(0)
