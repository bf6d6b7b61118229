"""Property-based scheduler invariants (hypothesis, marked slow).

Paper-level invariants, checked over randomized power-law batches and
budgets:

1. every output node lands in exactly one bucket group (the groups
   partition the seed set — Algorithm 2's disjointness precondition);
2. micro-bucket splitting partitions the parent bucket's rows exactly
   (§IV-C);
3. whenever the scheduler returns a plan, every group's estimated
   memory respects the constraint (Algorithm 3's acceptance rule);
4. the joint (K, N) placement assigns every bucket group to exactly one
   device, its per-device Eq. 1-2 ledgers fit the budget, and each
   device's halo set is exactly the cross-partition part of its
   groups' input node sets (split-parallel extension).
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BuffaloScheduler, generate_blocks_fast
from repro.core.split_parallel import (
    ensure_group_count,
    partition_nodes,
    plan_placement,
)
from repro.core.splitting import split_explosion_bucket
from repro.datasets import powerlaw_cluster_graph
from repro.errors import SchedulingError
from repro.gnn.bucketing import Bucket
from repro.gnn.footprint import ModelSpec
from repro.graph import sample_batch

pytestmark = pytest.mark.slow

SPEC = ModelSpec(8, 16, 5, 2, "mean")

COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@functools.lru_cache(maxsize=8)
def _graph(graph_seed: int):
    return powerlaw_cluster_graph(300, 3, 0.3, seed=graph_seed)


def _schedule(graph_seed, sample_seed, n_seeds, cutoff, divisor):
    graph = _graph(graph_seed)
    rng = np.random.default_rng(sample_seed)
    seeds = np.sort(
        rng.choice(graph.n_nodes, size=n_seeds, replace=False)
    )
    batch = sample_batch(graph, seeds, [cutoff, cutoff], rng=sample_seed)
    blocks = generate_blocks_fast(batch)
    probe = BuffaloScheduler(
        SPEC, float("inf"), cutoff=cutoff, clustering_coefficient=0.2
    )
    total = sum(probe.schedule(batch, blocks).estimated_bytes)
    constraint = total / divisor
    scheduler = BuffaloScheduler(
        SPEC, constraint, cutoff=cutoff, clustering_coefficient=0.2
    )
    try:
        plan = scheduler.schedule(batch, blocks)
    except SchedulingError:
        return batch, None, constraint  # unschedulable: properties vacuous
    return batch, plan, constraint


@settings(max_examples=25, **COMMON_SETTINGS)
@given(
    graph_seed=st.integers(0, 3),
    sample_seed=st.integers(0, 10**6),
    n_seeds=st.integers(8, 60),
    cutoff=st.integers(2, 8),
    divisor=st.floats(1.0, 12.0),
)
def test_groups_partition_outputs_and_respect_budget(
    graph_seed, sample_seed, n_seeds, cutoff, divisor
):
    batch, plan, constraint = _schedule(
        graph_seed, sample_seed, n_seeds, cutoff, divisor
    )
    if plan is None:
        return
    # (1) exact partition of the seed set: no output trained twice, none
    # dropped — the precondition for gradient-accumulation equivalence.
    all_rows = np.concatenate([g.rows for g in plan.groups])
    np.testing.assert_array_equal(
        np.sort(all_rows), np.arange(batch.n_seeds)
    )
    assert all_rows.size == np.unique(all_rows).size
    # (3) acceptance rule: every group's estimate fits the budget.
    assert all(
        g.estimated_bytes <= constraint + 1e-9 for g in plan.groups
    )
    # The final bucket list partitions the outputs too.
    bucket_rows = np.concatenate([b.rows for b in plan.buckets])
    np.testing.assert_array_equal(
        np.sort(bucket_rows), np.arange(batch.n_seeds)
    )


@settings(max_examples=50, **COMMON_SETTINGS)
@given(
    volume=st.integers(1, 400),
    k=st.integers(1, 40),
    degree=st.integers(1, 16),
    seed=st.integers(0, 10**6),
)
def test_split_partitions_bucket_exactly(volume, k, degree, seed):
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(10**6, size=volume, replace=False))
    bucket = Bucket(degree=degree, rows=rows)
    pieces = split_explosion_bucket(bucket, k)
    # (2) exact partition: concatenating the micro-buckets reproduces
    # the parent rows, each piece non-empty, sizes within one of even.
    concat = np.concatenate([p.rows for p in pieces])
    np.testing.assert_array_equal(np.sort(concat), rows)
    sizes = [p.volume for p in pieces]
    assert all(s >= 1 for s in sizes)
    assert max(sizes) - min(sizes) <= 1
    assert len(pieces) == min(k, volume)


@settings(max_examples=25, **COMMON_SETTINGS)
@given(
    graph_seed=st.integers(0, 3),
    sample_seed=st.integers(0, 10**6),
    n_seeds=st.integers(8, 60),
    cutoff=st.integers(2, 8),
    divisor=st.floats(1.0, 12.0),
    n_devices=st.integers(1, 5),
)
def test_placement_partitions_fits_budget_and_halo_exact(
    graph_seed, sample_seed, n_seeds, cutoff, divisor, n_devices
):
    batch, plan, constraint = _schedule(
        graph_seed, sample_seed, n_seeds, cutoff, divisor
    )
    if plan is None:
        return
    graph = _graph(graph_seed)
    blocks = generate_blocks_fast(batch)
    try:
        plan, regrouped = ensure_group_count(
            plan, n_devices, constraint
        )
    except SchedulingError:
        return  # no feasible K=N regrouping: properties vacuous
    owner = partition_nodes(graph.n_nodes, n_devices)
    local_sets = plan.input_node_sets(blocks)
    placement = plan_placement(
        plan,
        [batch.node_map[s] for s in local_sets],
        n_devices,
        constraint,
        owner,
    )

    # (4a) assignments place every group on exactly one device.
    assert len(placement.assignments) == plan.k
    assert all(0 <= d < n_devices for d in placement.assignments)
    claimed = sorted(
        i for d in range(n_devices) for i in placement.groups_of(d)
    )
    assert claimed == list(range(plan.k))
    if regrouped:
        # Regrouping preserves the exact output partition.
        rows = np.concatenate([g.rows for g in plan.groups])
        np.testing.assert_array_equal(
            np.sort(rows), np.arange(batch.n_seeds)
        )

    # (4b) per-device ledger = the worst assigned group estimate
    # (groups run sequentially) and fits the budget.
    estimates = plan.estimated_bytes
    for d in range(n_devices):
        mine = placement.groups_of(d)
        expected = max((estimates[i] for i in mine), default=0.0)
        assert placement.per_device_bytes[d] == expected
        assert placement.per_device_bytes[d] <= constraint + 1e-9

    # (4c) halo sets are exactly the cross-partition intersection of
    # the assigned groups' (global) input node sets.
    for d in range(n_devices):
        mine = placement.groups_of(d)
        if not mine:
            assert placement.halo_sets[d].size == 0
            continue
        union = np.unique(
            np.concatenate(
                [batch.node_map[local_sets[i]] for i in mine]
            )
        )
        expected_halo = union[owner[union] != d]
        np.testing.assert_array_equal(
            placement.halo_sets[d], expected_halo
        )
        # No halo node is owned by its reader.
        assert not np.any(owner[placement.halo_sets[d]] == d)
