"""Algorithm 2 parity: engine == ``train_iteration`` == full batch.

The paper's correctness claim (§IV-B) for the one iteration loop: a
:class:`BuffaloTrainer` iteration (plan, then the in-line engine) must
produce exactly the updates of the bare sequential recipe — sample,
schedule, ``generate_micro_batches``, ``train_iteration`` — and both
must match one full-batch step up to accumulation-order round-off.
"""

import numpy as np
import pytest

from repro.core import (
    BuffaloScheduler,
    BuffaloTrainer,
    generate_blocks_fast,
    generate_micro_batches,
)
from repro.core.api import build_model
from repro.core.trainer import MicroBatchTrainer
from repro.device import SimulatedGPU
from repro.gnn.footprint import ModelSpec
from repro.graph import sample_batch
from repro.nn.optim import Adam

N_ITERATIONS = 2
FANOUTS = [6, 6]


@pytest.fixture(scope="module")
def dataset():
    from repro.datasets import load

    return load("ogbn_arxiv", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def spec(dataset):
    return ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")


@pytest.fixture(scope="module")
def seeds(dataset):
    return dataset.train_nodes[:80]


@pytest.fixture(scope="module")
def constraint(dataset, spec, seeds):
    """A budget forcing K >= 2 on the test batch."""
    batch = sample_batch(dataset.graph, seeds, FANOUTS, rng=0)
    blocks = generate_blocks_fast(batch)
    probe = BuffaloScheduler(
        spec, float("inf"), cutoff=6, clustering_coefficient=0.2
    )
    return sum(probe.schedule(batch, blocks).estimated_bytes) / 4


def _make(dataset, spec, constraint):
    return BuffaloTrainer(
        dataset,
        spec,
        SimulatedGPU(capacity_bytes=1 << 40),
        fanouts=FANOUTS,
        seed=0,
        memory_constraint=constraint,
        clustering_coefficient=0.2,
    )


def _losses(trainer, seeds):
    return [
        trainer.run_iteration(seeds).result.loss
        for _ in range(N_ITERATIONS)
    ]


@pytest.fixture(scope="module")
def reference(dataset, spec, constraint, seeds):
    """The bare recipe, no engine: ``(losses, final weights)``."""
    model = build_model(spec, rng=0)
    trainer = MicroBatchTrainer(
        model,
        spec,
        Adam(model.parameters(), lr=1e-3),
        SimulatedGPU(capacity_bytes=1 << 40),
    )
    scheduler = BuffaloScheduler(
        spec, constraint, cutoff=FANOUTS[0], clustering_coefficient=0.2
    )
    losses = []
    for iteration in range(N_ITERATIONS):
        batch = sample_batch(dataset.graph, seeds, FANOUTS, rng=iteration)
        plan = scheduler.schedule(batch, generate_blocks_fast(batch))
        assert plan.k >= 2
        result = trainer.train_iteration(
            dataset,
            batch.node_map,
            generate_micro_batches(batch, plan),
            list(reversed(FANOUTS)),
        )
        losses.append(result.loss)
    return losses, model.state_dict()


@pytest.fixture(scope="module")
def engine_run(dataset, spec, constraint, seeds):
    """The same iterations through ``BuffaloTrainer``."""
    trainer = _make(dataset, spec, constraint)
    return _losses(trainer, seeds), trainer.model.state_dict()


class TestParity:
    def test_exact_loss_parity(self, reference, engine_run):
        assert engine_run[0] == reference[0]  # exact float equality

    def test_exact_weight_parity(self, reference, engine_run):
        for key, value in reference[1].items():
            np.testing.assert_array_equal(engine_run[1][key], value)

    def test_matches_full_batch_step(
        self, dataset, spec, seeds, engine_run
    ):
        # One unconstrained trainer runs the whole batch as a single
        # micro-batch; accumulation order differs, so tolerance applies.
        full = _make(dataset, spec, None)
        full_losses = _losses(full, seeds)
        assert full.run_iteration(seeds).plan.k == 1
        np.testing.assert_allclose(
            full_losses, engine_run[0], rtol=1e-4, atol=1e-6
        )

    def test_pipeline_report_attached(
        self, dataset, spec, constraint, seeds
    ):
        report = _make(dataset, spec, constraint).run_iteration(seeds)
        assert report.plan.k >= 2
        assert len(report.pipeline.timings) == report.plan.k
