"""Algorithm 2 parity: pipelined == sequential == full-batch.

The paper's correctness claim (§IV-B) extended to the staged engine:
whatever the prefetch depth or execution mode, a Buffalo iteration must
produce exactly the updates the strictly sequential trainer produces —
and both must match one full-batch step up to accumulation-order
round-off.
"""

import numpy as np
import pytest

from repro.core import BuffaloScheduler, BuffaloTrainer, generate_blocks_fast
from repro.device import SimulatedGPU
from repro.gnn.footprint import ModelSpec
from repro.graph import sample_batch

N_ITERATIONS = 2


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
    batch = sample_batch(dataset.graph, seeds, [6, 6], rng=0)
    blocks = generate_blocks_fast(batch)
    probe = BuffaloScheduler(
        spec, float("inf"), cutoff=6, clustering_coefficient=0.2
    )
    return sum(probe.schedule(batch, blocks).estimated_bytes) / 4


def _make(dataset, spec, constraint, **kwargs):
    return BuffaloTrainer(
        dataset,
        spec,
        SimulatedGPU(capacity_bytes=1 << 40),
        fanouts=[6, 6],
        seed=0,
        memory_constraint=constraint,
        clustering_coefficient=0.2,
        **kwargs,
    )


def _losses(trainer, seeds):
    return [
        trainer.run_iteration(seeds).result.loss
        for _ in range(N_ITERATIONS)
    ]


@pytest.fixture(scope="module")
def sequential(dataset, spec, constraint, seeds):
    trainer = _make(dataset, spec, constraint)
    losses = _losses(trainer, seeds)
    report = trainer.run_iteration(seeds)
    assert report.plan.k >= 2
    return losses, trainer


PIPELINE_VARIANTS = [
    dict(pipeline_depth=3, pipeline_mode="sync"),
    dict(pipeline_depth=2),
    dict(pipeline_depth=4, pipeline_mode="threaded"),
    dict(pipeline_depth=2, reuse_features=True),
]


class TestParity:
    @pytest.mark.parametrize(
        "kwargs", PIPELINE_VARIANTS, ids=lambda kw: "-".join(
            f"{k.replace('pipeline_', '')}={v}" for k, v in kw.items()
        )
    )
    def test_exact_loss_parity(
        self, dataset, spec, constraint, seeds, sequential, kwargs
    ):
        seq_losses, _ = sequential
        trainer = _make(dataset, spec, constraint, **kwargs)
        losses = _losses(trainer, seeds)
        assert losses == seq_losses  # exact float equality

    def test_exact_weight_parity(
        self, dataset, spec, constraint, seeds
    ):
        a = _make(dataset, spec, constraint)
        b = _make(dataset, spec, constraint, pipeline_depth=3)
        for _ in range(N_ITERATIONS):
            a.run_iteration(seeds)
            b.run_iteration(seeds)
        state_a = a.model.state_dict()
        state_b = b.model.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_matches_full_batch_step(
        self, dataset, spec, constraint, seeds, sequential
    ):
        # One unconstrained trainer runs the whole batch as a single
        # micro-batch; accumulation order differs, so tolerance applies.
        seq_losses, _ = sequential
        full = _make(dataset, spec, None)
        full_losses = _losses(full, seeds)
        assert full.run_iteration(seeds).plan.k == 1
        np.testing.assert_allclose(
            full_losses, seq_losses, rtol=1e-4, atol=1e-6
        )

    def test_pipeline_report_attached(
        self, dataset, spec, constraint, seeds
    ):
        trainer = _make(dataset, spec, constraint, pipeline_depth=2)
        report = trainer.run_iteration(seeds)
        assert report.pipeline is not None
        assert report.pipeline.depth == 2
        assert len(report.pipeline.timings) == report.plan.k

        # Depth 1 is the same engine in its sequential (sync) mode.
        plain = _make(dataset, spec, constraint).run_iteration(seeds)
        assert (plain.pipeline.depth, plain.pipeline.mode) == (1, "sync")
