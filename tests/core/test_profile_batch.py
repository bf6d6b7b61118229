"""profile_many must be exactly equivalent to per-bucket profile()."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import BucketMemEstimator
from repro.core.splitting import split_explosion_bucket
from repro.datasets import catalog
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket, bucketize_degrees, detect_explosion
from repro.gnn.footprint import ModelSpec

from .conftest import CUTOFF


@pytest.fixture()
def estimator_fresh(blocks, spec):
    return BucketMemEstimator(blocks, spec, clustering_coefficient=0.3)


class TestProfileMany:
    def test_matches_individual_profiles(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        explosion = detect_explosion(buckets, CUTOFF)
        if explosion is not None:
            buckets = [b for b in buckets if b is not explosion]
            buckets.extend(split_explosion_bucket(explosion, 4))

        batched = estimator_fresh.profile_many(buckets)

        reference = BucketMemEstimator(blocks, spec, 0.3)
        for bucket, profile in zip(buckets, batched):
            expected = reference.profile(bucket)
            assert profile.n_output == expected.n_output
            assert profile.degree == expected.degree
            assert profile.n_input == expected.n_input
            assert profile.layer_histograms == expected.layer_histograms

    def test_estimates_identical(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        estimator_fresh.profile_many(buckets)
        reference = BucketMemEstimator(blocks, spec, 0.3)
        for bucket in buckets:
            assert estimator_fresh.estimate(bucket) == pytest.approx(
                reference.estimate(bucket)
            )

    def test_cache_populated(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        estimator_fresh.profile_many(buckets)
        assert len(estimator_fresh._profile_cache) >= len(buckets)

    def test_idempotent(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        first = estimator_fresh.profile_many(buckets)
        second = estimator_fresh.profile_many(buckets)
        for a, b in zip(first, second):
            assert a is b  # cache hit returns the same object

    def test_single_bucket(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        [profile] = estimator_fresh.profile_many(buckets[:1])
        assert profile.n_output == buckets[0].volume


def _random_chain(rng, n_layers, n_out):
    """A power-law block chain built output-most first.

    Degrees are a capped Zipf draw (so degree-0 rows occur), neighbor
    positions are uniform over a source set that may be barely larger
    than the destinations (duplicated neighbors within and across
    buckets) or much larger (sources nobody reaches).
    """
    blocks = []
    n_dst = n_out
    for _ in range(n_layers):
        degrees = np.minimum(rng.zipf(1.7, n_dst) - 1, 9)
        n_src = n_dst + int(rng.integers(0, 2 * n_dst + 1))
        blocks.append(
            Block(
                src_nodes=np.arange(n_src),
                dst_nodes=np.arange(n_dst),
                indptr=np.concatenate([[0], np.cumsum(degrees)]),
                indices=rng.integers(0, n_src, int(degrees.sum())),
            )
        )
        n_dst = n_src
    return blocks[::-1]


class TestSegmentedWalkProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_layers=st.integers(1, 3),
        n_out=st.integers(1, 40),
    )
    def test_batch_walk_equals_per_bucket_walk(self, seed, n_layers, n_out):
        rng = np.random.default_rng(seed)
        blocks = _random_chain(rng, n_layers, n_out)
        for block in blocks:
            block.validate()
        model = ModelSpec(8, 16, 4, n_layers, "mean")
        buckets = bucketize_degrees(blocks[-1].degrees, 5)
        # One-row buckets, and one bucket whose rows repeat another's.
        largest = max(buckets, key=lambda b: b.volume)
        buckets.extend(split_explosion_bucket(largest, largest.volume))
        buckets.append(Bucket(degree=largest.degree, rows=largest.rows[::2]))

        batched = BucketMemEstimator(blocks, model, 0.3)
        batched._profile_batch(buckets)
        reference = BucketMemEstimator(blocks, model, 0.3)
        for bucket in buckets:
            got = batched._profile_cache[batched._cache_key(bucket)]
            want = reference.profile(bucket)
            assert got == want
            # Dict equality ignores order; the footprint sums iterate
            # the histogram, so insertion order is part of the contract.
            for got_hist, want_hist in zip(
                got.layer_histograms, want.layer_histograms
            ):
                assert list(got_hist.items()) == list(want_hist.items())
                assert all(
                    type(x) is int for item in got_hist.items() for x in item
                )
            assert batched.estimate(bucket) == reference.estimate(bucket)


def test_sort_key_has_headroom_at_paper_scale():
    # _profile_batch sorts seg * n_src + row in int64.  Every bucket has
    # at least one output row and every row is a graph node, so the key
    # is below n_nodes ** 2 for the largest graph the catalogue names.
    largest = max(
        max(catalog.spec(name).paper.n_nodes, catalog.spec(name).base_nodes)
        for name in catalog.DATASET_NAMES
    )
    assert largest >= 100_000_000
    assert 100 * largest**2 < 2**62
