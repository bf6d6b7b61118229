"""Differential tests: fused backend vs dense reference, values and grads.

Tolerance contract (docs/kernels.md): the fused CSR matmul sums each
row's neighbors in index order while the dense reduction sums pairwise,
so sum/mean/weighted/attention match the reference to float32
accumulation round-off — ``rtol=1e-5, atol=1e-6`` with degree <= 32
neighbors per row.  The ``max`` forward (and any bucket routed through
the dense fallback) is **bit-for-bit** — same compare order, same
argmax tie-breaking — while the max backward's column-order scatter
matches the reference's row-major scatter to the same round-off bound.

Every fused backend here is built with ``dense_fallback_elements=0`` so
small buckets exercise the fused code paths instead of the hybrid
dispatch's dense fallback (which is covered separately).
"""

import numpy as np
import pytest

from repro.config import FLOAT_DTYPE
from repro.gnn.bucketing import Bucket
from repro.kernels import FusedBackend, ReferenceBackend
from repro.tensor import Tensor

RTOL, ATOL = 1e-5, 1e-6


def _forced_fused():
    return FusedBackend(dense_fallback_elements=0)


def _run(backend, block, bucket, feats, op, seed=0):
    """One forward+backward; returns (out, grad) arrays."""
    src = Tensor(feats, requires_grad=True)
    out = backend.bucket_reduce(block, bucket, src, op)
    rng = np.random.default_rng(seed)
    seed_grad = rng.standard_normal(out.shape).astype(out.dtype)
    out.backward(seed_grad)
    return out.data, src.grad


def _buckets_by_kind(buckets):
    """(degree-1 bucket, cut-off bucket) from the mixed fixture."""
    by_degree = {b.degree: b for b in buckets}
    return by_degree[1], by_degree[5]


class TestLinearReduces:
    @pytest.mark.parametrize("op", ["sum", "mean"])
    def test_cutoff_bucket(self, cutoff_workload, op):
        w = cutoff_workload
        ref_out, ref_grad = _run(
            ReferenceBackend(), w.block, w.bucket, w.feats, op
        )
        fused_out, fused_grad = _run(
            _forced_fused(), w.block, w.bucket, w.feats, op
        )
        np.testing.assert_allclose(fused_out, ref_out, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            fused_grad, ref_grad, rtol=RTOL, atol=ATOL
        )

    @pytest.mark.parametrize("op", ["sum", "mean", "max"])
    @pytest.mark.parametrize("degree_kind", ["one", "cutoff"])
    def test_mixed_degrees(self, mixed_block, op, degree_kind):
        block, buckets, feats = mixed_block
        deg1, cut = _buckets_by_kind(buckets)
        bucket = deg1 if degree_kind == "one" else cut
        ref_out, ref_grad = _run(
            ReferenceBackend(), block, bucket, feats, op
        )
        fused_out, fused_grad = _run(
            _forced_fused(), block, bucket, feats, op
        )
        np.testing.assert_allclose(fused_out, ref_out, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            fused_grad, ref_grad, rtol=RTOL, atol=ATOL
        )

    def test_degree_one_is_exact(self, mixed_block):
        # A single neighbor means no accumulation order to differ on.
        block, buckets, feats = mixed_block
        deg1, _ = _buckets_by_kind(buckets)
        for op in ("sum", "mean", "max"):
            ref_out, ref_grad = _run(
                ReferenceBackend(), block, deg1, feats, op
            )
            fused_out, fused_grad = _run(
                _forced_fused(), block, deg1, feats, op
            )
            assert np.array_equal(fused_out, ref_out)
            assert np.array_equal(fused_grad, ref_grad)


class TestMax:
    def test_forward_bitwise_grads_to_roundoff(self, cutoff_workload):
        # Forward is exact (same compares, same tie-breaking).  The
        # backward scatters column-major where the reference scatters
        # row-major, so a source that wins several rows accumulates its
        # gradient in a different order — round-off, not semantics.
        w = cutoff_workload
        ref_out, ref_grad = _run(
            ReferenceBackend(), w.block, w.bucket, w.feats, "max"
        )
        fused_out, fused_grad = _run(
            _forced_fused(), w.block, w.bucket, w.feats, "max"
        )
        assert np.array_equal(fused_out, ref_out)
        np.testing.assert_allclose(
            fused_grad, ref_grad, rtol=RTOL, atol=ATOL
        )

    def test_tie_breaking_matches_argmax(self):
        # Two rows whose neighbors repeat the same source: the gradient
        # must flow to the *first* occurrence, like np.argmax.
        from repro.gnn.block import Block

        block = Block(
            src_nodes=np.arange(3),
            dst_nodes=np.arange(2),
            indptr=np.array([0, 2, 4]),
            indices=np.array([1, 1, 2, 2]),
        )
        bucket = Bucket(degree=2, rows=np.array([0, 1]))
        feats = np.ones((3, 4), dtype=FLOAT_DTYPE)
        ref_out, ref_grad = _run(
            ReferenceBackend(), block, bucket, feats, "max"
        )
        fused_out, fused_grad = _run(
            _forced_fused(), block, bucket, feats, "max"
        )
        assert np.array_equal(fused_out, ref_out)
        assert np.array_equal(fused_grad, ref_grad)


class TestWeightedAndAttention:
    def test_weighted_sum(self, cutoff_workload):
        w = cutoff_workload
        n, d = w.bucket.volume, w.bucket.degree
        rng = np.random.default_rng(11)
        coeff = rng.standard_normal((n, d)).astype(FLOAT_DTYPE)
        results = []
        for backend in (ReferenceBackend(), _forced_fused()):
            src = Tensor(w.feats, requires_grad=True)
            out = backend.bucket_weighted_sum(
                w.block, w.bucket, src, coeff
            )
            out.backward(np.ones(out.shape, dtype=out.dtype))
            results.append((out.data, src.grad))
        np.testing.assert_allclose(
            results[1][0], results[0][0], rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            results[1][1], results[0][1], rtol=RTOL, atol=ATOL
        )

    def test_attention_sum_both_grads(self, cutoff_workload):
        w = cutoff_workload
        n, d = w.bucket.volume, w.bucket.degree
        rng = np.random.default_rng(13)
        alpha_data = rng.random((n, d)).astype(FLOAT_DTYPE)
        results = []
        for backend in (ReferenceBackend(), _forced_fused()):
            src = Tensor(w.feats, requires_grad=True)
            alpha = Tensor(alpha_data, requires_grad=True)
            out = backend.bucket_attention_sum(
                w.block, w.bucket, src, alpha
            )
            out.backward(np.ones(out.shape, dtype=out.dtype))
            results.append((out.data, src.grad, alpha.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


class TestDenseFallback:
    def test_small_bucket_is_bit_for_bit(self, mixed_block):
        # Under the crossover the hybrid dispatch takes the reference
        # path, so small buckets are exact, not merely allclose.
        block, buckets, feats = mixed_block
        _, cut = _buckets_by_kind(buckets)
        assert cut.n_edges * feats.shape[1] < FusedBackend().dense_fallback_elements
        for op in ("sum", "mean", "max"):
            ref_out, ref_grad = _run(
                ReferenceBackend(), block, cut, feats, op
            )
            fused_out, fused_grad = _run(
                FusedBackend(), block, cut, feats, op
            )
            assert np.array_equal(fused_out, ref_out)
            assert np.array_equal(fused_grad, ref_grad)

    def test_fallback_counted(self, mixed_block):
        block, buckets, feats = mixed_block
        _, cut = _buckets_by_kind(buckets)
        backend = FusedBackend()
        backend.bucket_reduce(block, cut, Tensor(feats), "sum")
        assert backend._dense_fallbacks == 1
