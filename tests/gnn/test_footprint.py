"""Footprint validation: analytic formulas vs. the concrete ledger.

The analytic footprints drive Buffalo's memory estimator and all
symbolic sweeps, so they are cross-checked against the real allocation
ledger of concrete training runs (tolerance ±20%; measured worst case is
~13%).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import MicroBatchTrainer, generate_blocks_fast
from repro.core.api import build_model
from repro.core.grouping import BucketGroup
from repro.core.microbatch import MicroBatch
from repro.datasets import load
from repro.device import SimulatedGPU
from repro.errors import GraphError
from repro.gnn.footprint import (
    Footprint,
    ModelSpec,
    aggregator_bucket_footprint,
    combine_footprint,
    degree_histogram_of_block,
    input_feature_bytes,
    layer_footprint,
    model_layer_footprints,
    training_dram_bytes,
    training_flops,
    training_peak_bytes,
    working_set_bytes,
)
from repro.graph import sample_batch
from repro.kernels import KERNEL_BACKENDS
from repro.nn import SGD


class TestFootprintAlgebra:
    def test_add(self):
        a = Footprint(1, 2, 3, 4)
        b = Footprint(10, 20, 30, 40)
        c = a + b
        assert (c.activation_bytes, c.grad_bytes, c.flops, c.dram_bytes) == (
            11,
            22,
            33,
            44,
        )

    def test_zero(self):
        z = Footprint.zero()
        assert z.activation_bytes == 0 and z.flops == 0

    def test_scaled(self):
        s = Footprint(2, 2, 4, 8).scaled(0.5)
        assert s.activation_bytes == 1 and s.flops == 2

    def test_empty_bucket_is_zero(self):
        assert (
            aggregator_bucket_footprint("lstm", 0, 5, 8, 8).activation_bytes
            == 0
        )
        assert (
            aggregator_bucket_footprint("lstm", 5, 0, 8, 8).activation_bytes
            == 0
        )

    def test_unknown_aggregator_raises(self):
        with pytest.raises(GraphError):
            aggregator_bucket_footprint("bogus", 2, 2, 4, 4)

    def test_lstm_dominates_mean(self):
        lstm = aggregator_bucket_footprint("lstm", 100, 10, 64, 64)
        mean = aggregator_bucket_footprint("mean", 100, 10, 64, 64)
        assert lstm.activation_bytes > 5 * mean.activation_bytes
        assert lstm.flops > 10 * mean.flops

    def test_memory_grows_with_degree(self):
        lo = aggregator_bucket_footprint("lstm", 10, 5, 32, 32)
        hi = aggregator_bucket_footprint("lstm", 10, 50, 32, 32)
        assert hi.activation_bytes > 5 * lo.activation_bytes

    def test_first_layer_mean_cheaper(self):
        # Dense-gather algebra: only the reference backend retains the
        # (n, d, f) gather, and only when the inputs require grad.
        leaf = aggregator_bucket_footprint(
            "mean", 50, 8, 64, 64, input_requires_grad=False,
            backend="reference",
        )
        deep = aggregator_bucket_footprint(
            "mean", 50, 8, 64, 64, input_requires_grad=True,
            backend="reference",
        )
        assert leaf.activation_bytes < deep.activation_bytes
        assert leaf.grad_bytes == 0

    def test_combine_grads_mirror_activations(self):
        fp = combine_footprint(100, 64, 32)
        assert fp.grad_bytes == fp.activation_bytes

    def test_layer_footprint_sums_buckets(self):
        hist = {3: 10, 5: 20}
        whole = layer_footprint(hist, 16, 16, "mean", 16)
        parts = (
            layer_footprint({3: 10}, 16, 16, "mean", 16).flops
            + layer_footprint({5: 20}, 16, 16, "mean", 16).flops
        )
        assert whole.flops == pytest.approx(parts, rel=0.3)

    def test_forward_transient_can_set_the_peak(self):
        # A layer's transient sits on what earlier layers retain; the
        # working set is the larger of that and the backward peak.
        leaf = Footprint(100, 0, 0, 0, transient_bytes=500)
        assert working_set_bytes([leaf, Footprint(200, 100, 0, 0)]) == 500
        later = Footprint(50, 0, 0, 0, transient_bytes=400)
        assert working_set_bytes([Footprint(100, 0, 0, 0), later]) == 500
        assert working_set_bytes([Footprint(100, 0, 0, 0, 50)]) == 100

    def test_training_aggregates(self):
        fps = [Footprint(100, 50, 10, 20), Footprint(200, 100, 30, 40)]
        assert training_peak_bytes(fps, 1000, 10) == pytest.approx(
            1000 + 20 + 450
        )
        assert training_flops(fps) == pytest.approx(40 * 3)
        assert training_dram_bytes(fps) == pytest.approx(60 * 3)


class TestModelSpec:
    def test_layer_dims(self):
        spec = ModelSpec(8, 16, 4, 3, "mean")
        assert spec.layer_dims() == [(8, 16), (16, 16), (16, 4)]

    def test_param_bytes_match_model(self):
        for agg in ("mean", "lstm", "pool", "attention", "gcn"):
            spec = ModelSpec(12, 24, 6, 2, agg)
            model = build_model(spec, rng=0)
            actual = 4 * model.n_parameters()
            assert spec.param_bytes() == pytest.approx(actual, rel=0.05)


@pytest.mark.parametrize(
    "aggregator", ["mean", "sum", "max", "lstm", "pool", "attention", "gcn"]
)
def test_analytic_peak_matches_ledger(aggregator):
    """The headline calibration: analytic peak within ±20% of concrete.

    Checked under every kernel backend, each run priced under the
    backend that ran it (one test per aggregator, both backends).
    """
    ds = load("ogbn_arxiv", scale=0.03, seed=0)
    spec = ModelSpec(ds.feat_dim, 48, ds.n_classes, 2, aggregator)
    batch = sample_batch(ds.graph, ds.train_nodes[:80], [7, 7], rng=0)
    blocks = generate_blocks_fast(batch)

    for backend in KERNEL_BACKENDS:
        gpu = SimulatedGPU(capacity_bytes=10**12)
        model = build_model(spec, rng=0)
        trainer = MicroBatchTrainer(
            model,
            spec,
            SGD(model.parameters(), lr=0.01),
            gpu,
            kernel_backend=backend,
        )
        mb = MicroBatch(
            blocks=blocks,
            seed_rows=np.arange(batch.n_seeds),
            group=BucketGroup(),
        )
        result = trainer.train_iteration(ds, batch.node_map, [mb], [7, 7])

        footprints = model_layer_footprints(blocks, spec, backend=backend)
        predicted = training_peak_bytes(
            footprints,
            input_feature_bytes(blocks[0].n_src, spec.in_dim),
            spec.param_bytes(),
        )
        assert predicted == pytest.approx(
            result.peak_bytes, rel=0.20
        ), backend


@pytest.mark.parametrize("aggregator", ["mean", "max"])
def test_wide_leaf_transient_is_priced(aggregator):
    """512-wide leaf features, narrow hidden: the fused leaf layer's
    reassembly transient sets the ledger peak, and the estimate must
    not fall below it (an under-estimate is an OOM at schedule time)."""
    ds = load("ogbn_arxiv", scale=0.03, seed=0)
    wide = np.random.default_rng(0).standard_normal(
        (ds.graph.n_nodes, 512)
    ).astype(np.float32)
    ds = dataclasses.replace(ds, features=wide)
    spec = ModelSpec(512, 16, ds.n_classes, 2, aggregator)
    batch = sample_batch(ds.graph, ds.train_nodes[:80], [7, 7], rng=0)
    blocks = generate_blocks_fast(batch)
    model = build_model(spec, rng=0)
    trainer = MicroBatchTrainer(
        model,
        spec,
        SGD(model.parameters(), lr=0.01),
        SimulatedGPU(capacity_bytes=10**12),
        kernel_backend="fused",
    )
    mb = MicroBatch(
        blocks=blocks,
        seed_rows=np.arange(batch.n_seeds),
        group=BucketGroup(),
    )
    result = trainer.train_iteration(ds, batch.node_map, [mb], [7, 7])
    predicted = training_peak_bytes(
        model_layer_footprints(blocks, spec, backend="fused"),
        input_feature_bytes(blocks[0].n_src, spec.in_dim),
        spec.param_bytes(),
    )
    assert result.peak_bytes <= predicted <= 1.2 * result.peak_bytes
