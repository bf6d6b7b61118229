"""Tests for CSR position helpers: caching and validate-once."""

import numpy as np
import pytest

from repro.config import INDEX_DTYPE
from repro.errors import GraphError
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket
from repro.kernels.csr import bucket_positions, bucket_starts, cached_arange


class TestCachedArange:
    def test_values(self):
        arange = cached_arange(5, INDEX_DTYPE)
        assert np.array_equal(arange, np.arange(5))

    def test_memoized(self):
        assert cached_arange(7, INDEX_DTYPE) is cached_arange(7, INDEX_DTYPE)

    def test_read_only(self):
        arange = cached_arange(4, INDEX_DTYPE)
        with pytest.raises(ValueError):
            arange[0] = 9

    def test_distinct_dtypes_distinct_arrays(self):
        a = cached_arange(4, np.int32)
        b = cached_arange(4, np.int64)
        assert a.dtype == np.int32 and b.dtype == np.int64


def _degree2_block():
    # 3 dst rows, each with exactly 2 neighbors out of 5 sources.
    return Block(
        src_nodes=np.arange(5),
        dst_nodes=np.arange(3),
        indptr=np.array([0, 2, 4, 6]),
        indices=np.array([0, 1, 2, 3, 4, 0]),
    )


class TestBucketPositions:
    def test_matches_per_row_neighbors(self):
        block = _degree2_block()
        bucket = Bucket(degree=2, rows=np.array([0, 2]))
        positions = bucket_positions(block, bucket)
        assert positions.shape == (2, 2)
        assert np.array_equal(positions[0], block.neighbor_positions(0))
        assert np.array_equal(positions[1], block.neighbor_positions(2))

    def test_mixed_degree_bucket_rejected(self):
        block = Block(
            src_nodes=np.arange(4),
            dst_nodes=np.arange(2),
            indptr=np.array([0, 1, 3]),
            indices=np.array([0, 1, 2]),
        )
        bucket = Bucket(degree=1, rows=np.array([0, 1]))  # row 1 has deg 2
        with pytest.raises(GraphError, match="labeled degree 1"):
            bucket_starts(block, bucket)

    def test_validation_runs_once_per_block(self):
        block = _degree2_block()
        bucket = Bucket(degree=2, rows=np.array([0, 1]))
        assert not bucket.validated_for(block)
        bucket_starts(block, bucket)
        assert bucket.validated_for(block)
        # Same bucket against a different block re-validates.
        other = _degree2_block()
        assert not bucket.validated_for(other)
        bucket_starts(block, bucket)  # idempotent

    def test_validation_entry_dies_with_block(self):
        block = _degree2_block()
        bucket = Bucket(degree=2, rows=np.array([0, 1]))
        bucket_starts(block, bucket)
        assert bucket._validated_block() is block
        del block
        assert bucket._validated_block() is None

    def test_degree_zero_bucket(self):
        block = _degree2_block()
        bucket = Bucket(degree=0, rows=np.array([], dtype=np.int64))
        positions = bucket_positions(block, bucket)
        assert positions.shape == (0, 0)
