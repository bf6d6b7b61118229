"""The one iteration loop: exactness, ordering, errors, lifetimes."""

import weakref

import numpy as np
import pytest

from repro.core import (
    BuffaloScheduler,
    BuffaloTrainer,
    generate_blocks_fast,
    generate_micro_batches,
)
from repro.core import api as api_mod
from repro.core import microbatch as microbatch_mod
from repro.core import trainer as trainer_mod
from repro.core.api import build_model
from repro.core.trainer import MicroBatchTrainer, train_groups
from repro.datasets import load
from repro.device import SimulatedGPU
from repro.device.profiler import Profiler
from repro.gnn.footprint import ModelSpec
from repro.graph import sample_batch
from repro.nn import SGD

FANOUTS = [6, 6]


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def batch(dataset):
    seeds = dataset.train_nodes[:80]
    return sample_batch(dataset.graph, seeds, FANOUTS, rng=0)


@pytest.fixture(scope="module")
def spec(dataset):
    return ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")


@pytest.fixture(scope="module")
def constraint(batch, spec):
    """A budget forcing K >= 2 on the test batch."""
    probe = BuffaloScheduler(
        spec, float("inf"), cutoff=6, clustering_coefficient=0.2
    )
    blocks = generate_blocks_fast(batch)
    return sum(probe.schedule(batch, blocks).estimated_bytes) / 4


@pytest.fixture(scope="module")
def plan(batch, spec, constraint):
    """A schedule with several bucket groups (K >= 2)."""
    scheduler = BuffaloScheduler(
        spec, constraint, cutoff=6, clustering_coefficient=0.2
    )
    plan = scheduler.schedule(batch, generate_blocks_fast(batch))
    assert plan.k >= 2
    return plan


@pytest.fixture(scope="module")
def cutoffs(batch):
    return list(reversed(batch.fanouts))


@pytest.fixture
def make_trainer(spec):
    """Factory for identically initialized trainers (rng-matched)."""

    def _make(rng=7, lr=0.05, device=None):
        model = build_model(spec, rng=rng)
        return MicroBatchTrainer(
            model, spec, SGD(model.parameters(), lr=lr), device
        )

    return _make


def _materialized(trainer, dataset, batch, plan, cutoffs):
    """The loop building each group's micro-batch as it goes."""
    return train_groups(
        [trainer],
        dataset,
        batch.node_map,
        plan.groups,
        cutoffs,
        Profiler(),
        batch=batch,
    )


class TestExactness:
    def test_materialized_matches_prepared(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        prepared = make_trainer()
        expected = prepared.train_iteration(
            dataset,
            batch.node_map,
            generate_micro_batches(batch, plan),
            cutoffs,
        )
        trainer = make_trainer()
        result = _materialized(trainer, dataset, batch, plan, cutoffs)
        assert result.loss == expected.loss
        assert result.n_micro_batches == plan.k
        state = trainer.model.state_dict()
        for key, value in prepared.model.state_dict().items():
            np.testing.assert_array_equal(state[key], value)

    def test_micro_batches_in_schedule_order(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        trainer = make_trainer()
        seen = []
        real = trainer.train_micro_batch

        def recording(dataset_, node_map, mb, *args, index, **kwargs):
            seen.append((index, mb.seed_rows))
            return real(dataset_, node_map, mb, *args, index=index, **kwargs)

        trainer.train_micro_batch = recording
        _materialized(trainer, dataset, batch, plan, cutoffs)
        assert [index for index, _ in seen] == list(range(plan.k))
        for (_, rows), group in zip(seen, plan.groups):
            np.testing.assert_array_equal(rows, group.rows)

    def test_peaks_recorded_with_device(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        trainer = make_trainer(device=SimulatedGPU(capacity_bytes=1 << 40))
        result = _materialized(trainer, dataset, batch, plan, cutoffs)
        assert result.peak_bytes > 0
        assert len(result.micro_batch_peaks) == plan.k


class TestFailureModes:
    def test_block_generation_error_propagates(
        self, monkeypatch, make_trainer, dataset, batch, plan, cutoffs
    ):
        real = trainer_mod.materialize_micro_batch
        calls = {"n": 0}

        def exploding(batch_, group):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom in block generation")
            return real(batch_, group)

        monkeypatch.setattr(
            trainer_mod, "materialize_micro_batch", exploding
        )
        with pytest.raises(RuntimeError, match="boom"):
            _materialized(make_trainer(), dataset, batch, plan, cutoffs)
        # Strictly in line: the failure stopped the loop at group 2.
        assert calls["n"] == 2


class TestLifetime:
    def test_micro_batches_die_with_the_iteration(
        self, monkeypatch, dataset, spec, constraint
    ):
        # The report of iteration i is still alive while iteration i+1
        # runs (TrainingLoop keeps it), so it must pin neither the K
        # micro-batches nor the sampled batch.
        refs = []

        def tracked(factory):
            def make(*args, **kwargs):
                made = factory(*args, **kwargs)
                refs.append(weakref.ref(made))
                return made

            return make

        monkeypatch.setattr(
            microbatch_mod, "MicroBatch", tracked(microbatch_mod.MicroBatch)
        )
        monkeypatch.setattr(
            api_mod, "sample_batch", tracked(api_mod.sample_batch)
        )
        trainer = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=1 << 40),
            fanouts=FANOUTS,
            seed=0,
            memory_constraint=constraint,
            clustering_coefficient=0.2,
        )
        report = trainer.run_iteration(dataset.train_nodes[:80])
        assert report.n_micro_batches > 1
        assert len(refs) == 1 + report.n_micro_batches
        alive = [type(ref()).__name__ for ref in refs if ref() is not None]
        assert alive == []

    def test_batch_blocks_die_before_the_groups_train(
        self, monkeypatch, dataset, spec, constraint
    ):
        # Only planning (schedule + placement) reads the whole-batch
        # block chain; every group trains on blocks of its own, so the
        # chain must not stay resident beside the groups' activations.
        refs = []
        real_generate = api_mod.generate_blocks_fast

        def generate(*args, **kwargs):
            blocks = real_generate(*args, **kwargs)
            refs.extend(weakref.ref(block) for block in blocks)
            return blocks

        alive_per_group = []
        real_train = MicroBatchTrainer.train_micro_batch

        def train(self, *args, **kwargs):
            alive_per_group.append(sum(ref() is not None for ref in refs))
            return real_train(self, *args, **kwargs)

        monkeypatch.setattr(api_mod, "generate_blocks_fast", generate)
        monkeypatch.setattr(MicroBatchTrainer, "train_micro_batch", train)
        trainer = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=1 << 40),
            fanouts=FANOUTS,
            seed=0,
            memory_constraint=constraint,
            clustering_coefficient=0.2,
        )
        report = trainer.run_iteration(dataset.train_nodes[:80])
        assert len(refs) == len(FANOUTS)
        assert alive_per_group == [0] * report.n_micro_batches
