"""Differential tests: fused backend vs dense reference, values and grads.

Tolerance contract (docs/kernels.md): the fused CSR matmul sums each
row's neighbors in index order while the dense reduction sums pairwise,
so sum/mean/weighted/attention match the reference to float32
accumulation round-off — ``rtol=1e-5, atol=1e-6`` with degree <= 32
neighbors per row.  ``max`` is **bit-for-bit** both ways — same
compare order and argmax tie-breaking in the forward, and a backward
scatter that adds each source element's winners in the reference's
row-major order.

Every bucket, however small, runs the CSR paths.

The fused linear reduces call scipy's compiled ``csr_matvecs`` /
``csc_matvecs`` on the bucket's three CSR arrays without building a
``csr_matrix``; ``TestMatvecsEqualScipy`` holds that path to the *bits*
of ``csr_matrix(...) @ src`` and ``.T @ grad``.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix

from repro.config import FLOAT_DTYPE
from repro.gnn.bucketing import Bucket
from repro.kernels import FusedBackend, ReferenceBackend
from repro.kernels.csr import bucket_positions
from repro.kernels.fused import _matvecs, csc_matvecs, csr_matvecs
from repro.tensor import Tensor

RTOL, ATOL = 1e-5, 1e-6


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
            FusedBackend(), w.block, w.bucket, w.feats, op
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
            FusedBackend(), block, bucket, feats, op
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
                FusedBackend(), block, deg1, feats, op
            )
            assert np.array_equal(fused_out, ref_out)
            assert np.array_equal(fused_grad, ref_grad)


class TestMax:
    def test_forward_and_grads_bitwise(self, cutoff_workload):
        # Forward: same compares, same tie-breaking.  Backward: the one
        # flat scatter adds a source element's winners in the row-major
        # order the reference's np.add.at over (n, d, f) does.
        w = cutoff_workload
        ref_out, ref_grad = _run(
            ReferenceBackend(), w.block, w.bucket, w.feats, "max"
        )
        fused_out, fused_grad = _run(
            FusedBackend(), w.block, w.bucket, w.feats, "max"
        )
        assert np.array_equal(fused_out, ref_out)
        assert np.array_equal(fused_grad, ref_grad)

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
            FusedBackend(), block, bucket, feats, "max"
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
        for backend in (ReferenceBackend(), FusedBackend()):
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
        for backend in (ReferenceBackend(), FusedBackend()):
            src = Tensor(w.feats, requires_grad=True)
            alpha = Tensor(alpha_data, requires_grad=True)
            out = backend.bucket_attention_sum(
                w.block, w.bucket, src, alpha
            )
            out.backward(np.ones(out.shape, dtype=out.dtype))
            results.append((out.data, src.grad, alpha.grad))
        for got, want in zip(results[1], results[0]):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def _bucket_of_kind(buckets, kind):
    deg1, cut = _buckets_by_kind(buckets)
    if kind == "degree_one":
        return deg1
    if kind == "cutoff":
        return cut
    if kind == "single_row":
        return Bucket(degree=cut.degree, rows=cut.rows[:1])
    assert kind == "empty"
    return Bucket(degree=cut.degree, rows=cut.rows[:0])


def _strided(array, layout):
    """``array``'s values, C-contiguous or as every other column of a
    wider buffer."""
    if layout == "contiguous":
        return np.ascontiguousarray(array)
    wide = np.zeros((array.shape[0], 2 * array.shape[1]), dtype=array.dtype)
    wide[:, ::2] = array
    return wide[:, ::2]


def _scipy_operator(block, bucket, weights, dtype):
    """The bucket's aggregation operator as scipy builds it."""
    n, d = bucket.volume, bucket.degree
    if weights is None:
        weights = np.ones(n * d, dtype=dtype)
    return csr_matrix(
        (
            weights.ravel(),
            bucket_positions(block, bucket).ravel(),
            np.arange(n + 1) * d,
        ),
        shape=(n, block.n_src),
    )


def _linear(backend, kind, block, bucket, src, coeff):
    """Dispatch one of the four linear reduces."""
    if kind in ("sum", "mean"):
        return backend.bucket_reduce(block, bucket, src, kind)
    if kind == "weighted":
        return backend.bucket_weighted_sum(block, bucket, src, coeff)
    return backend.bucket_attention_sum(block, bucket, src, Tensor(coeff))


BUCKET_KINDS = ["empty", "degree_one", "single_row", "cutoff"]


class TestMatvecsEqualScipy:
    """The direct sparsetools calls give scipy's ``@`` bit for bit."""

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("bucket_kind", BUCKET_KINDS)
    @pytest.mark.parametrize("op", ["sum", "mean", "weighted", "attention"])
    def test_forward_and_input_gradient(
        self, mixed_block, op, bucket_kind, layout
    ):
        block, buckets, feats = mixed_block
        bucket = _bucket_of_kind(buckets, bucket_kind)
        n, d = bucket.volume, bucket.degree
        rng = np.random.default_rng(5)
        feats = _strided(feats, layout)
        seed_grad = _strided(
            rng.standard_normal((n, feats.shape[1])).astype(FLOAT_DTYPE),
            layout,
        )
        coeff = rng.standard_normal((n, d)).astype(FLOAT_DTYPE)

        src = Tensor(feats, requires_grad=True)
        out = _linear(FusedBackend(), op, block, bucket, src, coeff)
        out.backward(seed_grad)

        operator = _scipy_operator(
            block,
            bucket,
            coeff if op in ("weighted", "attention") else None,
            FLOAT_DTYPE,
        )
        want_out = operator @ feats
        want_grad = seed_grad
        if op == "mean":
            want_out *= 1.0 / d
            want_grad = seed_grad * (1.0 / d)
        assert out.data.dtype == want_out.dtype
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(src.grad, operator.T @ want_grad)

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bucket_kind", BUCKET_KINDS)
    def test_operator_arrays_in_either_dtype(
        self, mixed_block, bucket_kind, dtype, layout
    ):
        # Tensors are float32 throughout, so float64 (and a float64
        # weight against float32 features, which upcasts) reaches the
        # seam only directly.
        block, buckets, feats = mixed_block
        bucket = _bucket_of_kind(buckets, bucket_kind)
        n, d = bucket.volume, bucket.degree
        rng = np.random.default_rng(9)
        feats = _strided(feats.astype(dtype), layout)
        grad = _strided(
            rng.standard_normal((n, feats.shape[1])).astype(dtype), layout
        )
        backend = FusedBackend()
        for weights in (None, rng.standard_normal(n * d)):
            want = _scipy_operator(block, bucket, weights, dtype)
            got = _matvecs(
                csr_matvecs,
                n,
                block.n_src,
                backend._operator(block, bucket, weights, dtype),
                feats,
            )
            assert got.dtype == (want @ feats).dtype
            assert np.array_equal(got, want @ feats)
            got = _matvecs(
                csc_matvecs,
                block.n_src,
                n,
                backend._operator(block, bucket, weights, dtype),
                grad,
            )
            assert got.dtype == (want.T @ grad).dtype
            assert np.array_equal(got, want.T @ grad)

    def test_single_feature_column(self, mixed_block):
        # scipy routes an (n_src, 1) operand through csr_matvec, the
        # backend through csr_matvecs with one vector: same sums.
        block, buckets, feats = mixed_block
        _, cut = _buckets_by_kind(buckets)
        column = np.ascontiguousarray(feats[:, :1])
        got, got_grad = _run(FusedBackend(), block, cut, column, "sum")
        operator = _scipy_operator(block, cut, None, FLOAT_DTYPE)
        assert np.array_equal(got, operator @ column)
        seed_grad = np.random.default_rng(0).standard_normal(got.shape)
        assert np.array_equal(
            got_grad, operator.T @ seed_grad.astype(FLOAT_DTYPE)
        )

    def test_back_to_back_buckets_share_one_arena(self, mixed_block):
        # The operator arrays are arena views the next bucket's forward
        # overwrites; backward rebuilds them, so interleaving two
        # buckets on one Workspace changes nothing.
        block, buckets, feats = mixed_block
        deg1, cut = _buckets_by_kind(buckets)
        alone = [
            _run(FusedBackend(), block, bucket, feats, "mean")
            for bucket in (cut, deg1)
        ]
        backend = FusedBackend()
        src = Tensor(feats, requires_grad=True)
        outs = [
            backend.bucket_reduce(block, bucket, src, "mean")
            for bucket in (cut, deg1)
        ]
        grads = []
        for out in outs:
            src.zero_grad()
            seed_grad = np.random.default_rng(0).standard_normal(out.shape)
            out.backward(seed_grad.astype(out.dtype))
            grads.append(src.grad.copy())
        for (want_out, want_grad), out, grad in zip(alone, outs, grads):
            assert np.array_equal(out.data, want_out)
            assert np.array_equal(grad, want_grad)

    def test_sparsetools_signature_canary(self):
        # The one place a scipy upgrade that moves or re-orders the two
        # private routines fails: (n_row, n_col, n_vecs, indptr,
        # indices, data, x_flat, y_flat), accumulating into y.
        dense = np.array(
            [[1, 0, 2, 0], [0, 0, 3, 0], [4, 5, 0, 6]], dtype=np.float32
        )
        matrix = csr_matrix(dense)
        indptr = matrix.indptr.astype(np.int64)
        indices = matrix.indices.astype(np.int64)
        x = np.arange(8, dtype=np.float32).reshape(4, 2)
        y = np.zeros((3, 2), dtype=np.float32)
        csr_matvecs(3, 4, 2, indptr, indices, matrix.data, x.ravel(), y.ravel())
        assert np.array_equal(y, dense @ x)
        g = np.arange(6, dtype=np.float32).reshape(3, 2)
        back = np.zeros((4, 2), dtype=np.float32)
        csc_matvecs(
            4, 3, 2, indptr, indices, matrix.data, g.ravel(), back.ravel()
        )
        assert np.array_equal(back, dense.T @ g)


class TestDenseFallback:
    """Only pool/LSTM neighbor tensors take the dense path."""

    def test_small_bucket_is_bit_for_bit(self, mixed_block):
        # The fixture's cut-off bucket is small (degree 5): CSR adds a
        # row's few neighbors in the order the dense reduction does,
        # and max is exact at any size, so the results are exact, not
        # merely allclose.
        block, buckets, feats = mixed_block
        _, cut = _buckets_by_kind(buckets)
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
        # A small bucket runs CSR: it counts as a reduce call, never as
        # a dense fallback.
        block, buckets, feats = mixed_block
        _, cut = _buckets_by_kind(buckets)
        backend = FusedBackend()
        backend.bucket_reduce(block, cut, Tensor(feats), "sum")
        assert backend._reduce_calls == 1
        assert backend._dense_fallbacks == 0
