"""Tests for splitting, grouping, the scheduler, and micro-batch generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BucketMemEstimator,
    BuffaloScheduler,
    generate_blocks_fast,
    generate_micro_batches,
    mem_balanced_grouping,
    split_explosion_bucket,
)
from repro.core.microbatch import micro_batch_coverage
from repro.core.scheduler import group_input_nodes
from repro.errors import SchedulingError
from repro.gnn import Bucket, bucketize_degrees
from repro.gnn.footprint import ModelSpec

from .conftest import CUTOFF


@pytest.fixture()
def estimator(blocks, spec):
    return BucketMemEstimator(blocks, spec, clustering_coefficient=0.3)


class TestSplitting:
    def test_even_split(self):
        bucket = Bucket(degree=10, rows=np.arange(100))
        parts = split_explosion_bucket(bucket, 4)
        assert len(parts) == 4
        assert all(p.volume == 25 for p in parts)
        assert all(p.degree == 10 for p in parts)
        assert all(p.is_micro for p in parts)

    def test_uneven_split_differs_by_one(self):
        bucket = Bucket(degree=5, rows=np.arange(10))
        parts = split_explosion_bucket(bucket, 3)
        sizes = sorted(p.volume for p in parts)
        assert sizes == [3, 3, 4]

    def test_partition_preserved(self):
        bucket = Bucket(degree=5, rows=np.arange(17))
        parts = split_explosion_bucket(bucket, 5)
        merged = np.sort(np.concatenate([p.rows for p in parts]))
        np.testing.assert_array_equal(merged, np.arange(17))

    def test_k_one_returns_original(self):
        bucket = Bucket(degree=5, rows=np.arange(10))
        assert split_explosion_bucket(bucket, 1) == [bucket]

    def test_k_capped_at_volume(self):
        bucket = Bucket(degree=5, rows=np.arange(3))
        parts = split_explosion_bucket(bucket, 10)
        assert len(parts) == 3

    def test_invalid_k_raises(self):
        with pytest.raises(SchedulingError):
            split_explosion_bucket(Bucket(degree=1, rows=np.arange(2)), 0)


class TestGrouping:
    def test_groups_partition_buckets(self, blocks, estimator):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        _, groups = mem_balanced_grouping(buckets, 3, float("inf"), estimator)
        placed = [b for g in groups for b in g.buckets]
        assert sorted(id(b) for b in placed) == sorted(id(b) for b in buckets)

    def test_unlimited_budget_succeeds(self, blocks, estimator):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        success, _ = mem_balanced_grouping(
            buckets, 2, float("inf"), estimator
        )
        assert success

    def test_tiny_budget_fails(self, blocks, estimator):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        success, groups = mem_balanced_grouping(buckets, 2, 10.0, estimator)
        assert not success
        assert groups  # attempted packing still returned

    def test_balance_quality(self, blocks, estimator):
        # LPT packing should land groups within ~2x of each other when
        # there are enough buckets to balance.
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        split = []
        for b in buckets:
            split.extend(split_explosion_bucket(b, 2))
        _, groups = mem_balanced_grouping(split, 2, float("inf"), estimator)
        sizes = [g.estimated_bytes for g in groups]
        assert max(sizes) <= 2.5 * max(min(sizes), 1)

    def test_invalid_args_raise(self, blocks, estimator):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        with pytest.raises(SchedulingError):
            mem_balanced_grouping(buckets, 0, 1.0, estimator)
        with pytest.raises(SchedulingError):
            mem_balanced_grouping([], 2, 1.0, estimator)

    def test_group_rows_sorted(self, blocks, estimator):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        _, groups = mem_balanced_grouping(buckets, 2, float("inf"), estimator)
        for g in groups:
            rows = g.rows
            assert np.all(np.diff(rows) > 0)


class TestScheduler:
    def _scheduler(self, spec, budget, k_max=64):
        return BuffaloScheduler(
            spec, budget, cutoff=CUTOFF, clustering_coefficient=0.3,
            k_max=k_max,
        )

    def test_large_budget_single_group(self, batch, blocks, spec):
        plan = self._scheduler(spec, 1e15).schedule(batch, blocks)
        assert plan.k == 1
        assert not plan.split_applied

    def test_small_budget_multiple_groups(self, batch, blocks, spec):
        big_plan = self._scheduler(spec, 1e15).schedule(batch, blocks)
        total = sum(big_plan.estimated_bytes)
        plan = self._scheduler(spec, total / 3).schedule(batch, blocks)
        assert plan.k >= 2
        for g in plan.groups:
            assert g.estimated_bytes <= total / 3

    def test_hopeless_budget_raises(self, batch, blocks, spec):
        with pytest.raises(SchedulingError):
            self._scheduler(spec, 1.0, k_max=4).schedule(batch, blocks)

    def test_invalid_constraint_raises(self, spec):
        with pytest.raises(SchedulingError):
            self._scheduler(spec, 0)

    def test_groups_cover_all_seeds(self, batch, blocks, spec):
        plan = self._scheduler(spec, 1e15).schedule(batch, blocks)
        rows = np.sort(np.concatenate([g.rows for g in plan.groups]))
        np.testing.assert_array_equal(rows, np.arange(batch.n_seeds))

    def test_split_applied_under_pressure(self, batch, blocks, spec):
        # With an exploded cut-off bucket and a tight budget, the plan
        # must split it across groups.
        big_plan = self._scheduler(spec, 1e15).schedule(batch, blocks)
        total = sum(big_plan.estimated_bytes)
        plan = self._scheduler(spec, total / 4).schedule(batch, blocks)
        if plan.split_applied:
            micro = [b for b in plan.buckets if b.is_micro]
            assert len(micro) >= 2


class TestMicroBatches:
    def _plan(self, batch, blocks, spec, budget):
        scheduler = BuffaloScheduler(
            spec, budget, cutoff=CUTOFF, clustering_coefficient=0.3
        )
        return scheduler.schedule(batch, blocks)

    def test_coverage(self, batch, blocks, spec):
        plan = self._plan(batch, blocks, spec, 1e15)
        mbs = generate_micro_batches(batch, plan)
        assert micro_batch_coverage(mbs, batch.n_seeds)

    def test_micro_batch_blocks_valid(self, batch, blocks, spec):
        big = self._plan(batch, blocks, spec, 1e15)
        total = sum(big.estimated_bytes)
        plan = self._plan(batch, blocks, spec, total / 3)
        mbs = generate_micro_batches(batch, plan)
        assert len(mbs) == plan.k
        for mb in mbs:
            for b in mb.blocks:
                b.validate()
            np.testing.assert_array_equal(
                mb.blocks[-1].dst_nodes, mb.seed_rows
            )

    def test_micro_batch_inputs_subset_of_batch(self, batch, blocks, spec):
        plan = self._plan(batch, blocks, spec, 1e15)
        for mb in generate_micro_batches(batch, plan):
            assert mb.n_input <= batch.n_nodes


class TestInputNodeSets:
    """``SchedulePlan.input_node_sets``: what split placement weighs."""

    @pytest.fixture()
    def plan(self, batch, blocks, spec):
        scheduler = BuffaloScheduler(
            spec, 1e15, cutoff=CUTOFF, clustering_coefficient=0.3
        )
        total = sum(scheduler.schedule(batch, blocks).estimated_bytes)
        scheduler.memory_constraint = total / 3
        plan = scheduler.schedule(batch, blocks)
        assert plan.k >= 2
        return plan

    def test_match_micro_batch_input_layers(self, batch, blocks, plan):
        # The plan-level reachability walk must predict exactly the
        # input layer each generated micro-batch will carry.
        input_sets = plan.input_node_sets(blocks)
        micro_batches = generate_micro_batches(batch, plan)
        assert len(input_sets) == len(micro_batches)
        for nodes, mb in zip(input_sets, micro_batches):
            np.testing.assert_array_equal(
                np.sort(nodes), np.sort(mb.blocks[0].src_nodes)
            )

    def test_cached_across_calls(self, blocks, plan):
        assert plan.input_node_sets(blocks) is plan.input_node_sets(blocks)

    def test_group_input_nodes_single_row(self, batch, blocks):
        nodes = group_input_nodes(blocks, np.array([0]))
        direct = generate_blocks_fast(batch, np.array([0]))
        np.testing.assert_array_equal(
            np.sort(nodes), np.sort(direct[0].src_nodes)
        )


@settings(max_examples=20, deadline=None)
@given(
    volumes=st.lists(st.integers(1, 50), min_size=2, max_size=12),
    k=st.integers(1, 6),
)
def test_grouping_property_partition(volumes, k):
    """Grouping must always partition its input buckets, any K."""

    class _FlatEstimator:
        """Stub estimator: memory proportional to volume."""

        def estimate(self, bucket):
            return float(bucket.volume)

        def profile_many(self, buckets):
            return [self.profile(b) for b in buckets]

        def profile(self, bucket):
            from repro.core.estimator import BucketProfile

            return BucketProfile(
                bucket.volume, bucket.degree, bucket.volume, ({},)
            )

        def grouping_ratio(self, profile):
            return 1.0

        def estimate_from_profile(self, profile):
            return float(profile.n_output)

    start = 0
    buckets = []
    for i, v in enumerate(volumes):
        buckets.append(
            Bucket(degree=i + 1, rows=np.arange(start, start + v))
        )
        start += v
    success, groups = mem_balanced_grouping(
        buckets, k, float("inf"), _FlatEstimator()
    )
    assert success
    placed = np.sort(np.concatenate([g.rows for g in groups]))
    np.testing.assert_array_equal(placed, np.arange(start))
    # LPT balance bound: max group <= sum/k + max item.
    sizes = [g.estimated_bytes for g in groups]
    assert max(sizes) <= sum(volumes) / min(k, len(buckets)) + max(volumes)
