"""BuffaloScheduler (paper Algorithm 3).

Searches the smallest ``K`` such that the output-layer buckets — with the
exploded cut-off bucket split into ``K`` micro-buckets — can be packed
into ``K`` bucket groups that each respect the GPU memory constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.estimator import BucketMemEstimator, walk_rows
from repro.core.grouping import (
    BucketGroup,
    mem_balanced_grouping,
    refine_balance,
)
from repro.core.splitting import split_explosion_bucket
from repro.errors import SchedulingError
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket, bucketize_degrees, detect_explosion
from repro.gnn.footprint import ModelSpec
from repro.graph.sampling import SampledBatch
from repro.graph.subgraph import unique_ids
from repro.obs.metrics import SMALL_COUNT_BUCKETS, get_metrics
from repro.obs.trace import get_tracer


def group_input_nodes(blocks: list[Block], rows: np.ndarray) -> np.ndarray:
    """Batch-local input-layer node ids reachable from output ``rows``.

    Walks the batch-level block chain (input-most first) from the given
    output rows toward the input layer — the same reachability walk the
    memory estimator performs, but returning the concrete node ids
    instead of their count.  The result equals the ``src_nodes`` of the
    input-most block a micro-batch built from ``rows`` would carry, so
    the split placement policy can price each group's shard reads and
    halo *before* any micro-batch blocks are generated.
    """
    rows, _ = walk_rows(blocks, unique_ids(rows, blocks[-1].n_dst))
    return blocks[0].src_nodes[rows]


@dataclass
class SchedulePlan:
    """The scheduler's output.

    Attributes:
        groups: bucket groups, one micro-batch each.
        k: number of groups.
        split_applied: whether the explosion bucket was split.
        buckets: the final output-layer bucket list (post-split).
        estimator: the estimator used (reused by split regrouping);
            ``None`` once :meth:`repro.core.api.BuffaloTrainer.run_iteration`
            has placed the plan and released the batch-level chain the
            estimator walks.
    """

    groups: list[BucketGroup]
    k: int
    split_applied: bool
    buckets: list[Bucket]
    estimator: BucketMemEstimator | None
    _input_sets: list[np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def estimated_bytes(self) -> list[float]:
        return [g.estimated_bytes for g in self.groups]

    def input_node_sets(self, blocks: list[Block]) -> list[np.ndarray]:
        """Per-group batch-local input-node ids, in schedule order.

        ``blocks`` is the *batch-level* chain the plan was scheduled
        from.  Results are cached on the plan (the sets are consulted
        both by split placement and by the store-I/O experiment).
        """
        if self._input_sets is None:
            self._input_sets = [
                group_input_nodes(blocks, group.rows)
                for group in self.groups
            ]
        return self._input_sets


class BuffaloScheduler:
    """Plans bucket groups for a batch under a memory constraint.

    Args:
        model: the workload description (dims, depth, aggregator).
        memory_constraint: per-micro-batch device byte budget (``M_ctr``).
        cutoff: the sampling size / cut-off degree ``F`` of the output
            layer.
        clustering_coefficient: the graph's ``C`` (offline statistic).
        k_max: search bound on the number of micro-batches.
        split_granularity: when set, any bucket whose standalone
            estimate exceeds this fraction of the memory constraint is
            split into even micro-buckets before grouping, so the bin
            packer works with fine granules and groups balance tightly
            (the paper's 4–6% spread needs "portions of large-sized
            degree-buckets", §IV-A).  ``None`` restricts splitting to
            the explosion bucket exactly as Algorithm 3 is written.
    """

    def __init__(
        self,
        model: ModelSpec,
        memory_constraint: float,
        cutoff: int | None,
        clustering_coefficient: float,
        *,
        k_max: int = 128,
        split_granularity: float | None = 0.25,
    ) -> None:
        if memory_constraint <= 0:
            raise SchedulingError(
                f"memory constraint must be positive, got {memory_constraint}"
            )
        self.model = model
        self.memory_constraint = float(memory_constraint)
        self.cutoff = None if cutoff is None else int(cutoff)
        self.clustering = float(clustering_coefficient)
        self.k_max = int(k_max)
        self.split_granularity = split_granularity

    def schedule(
        self, batch: SampledBatch, blocks: list[Block]
    ) -> SchedulePlan:
        """Run Algorithm 3 on a sampled batch's block chain.

        Raises:
            SchedulingError: when no feasible plan exists within
                ``k_max`` groups (a single bucket's dependencies exceed
                the budget).
        """
        from repro.core.estimator import redundancy_group_estimate

        tracer = get_tracer()
        with tracer.span("schedule.bucketize") as span:
            base_buckets = bucketize_degrees(
                blocks[-1].degrees, self.cutoff
            )
            estimator = BucketMemEstimator(
                blocks, self.model, self.clustering
            )
            explosion = detect_explosion(base_buckets, self.cutoff)
            span.set_attrs(
                {
                    "n_buckets": len(base_buckets),
                    "explosion": explosion is not None,
                }
            )

        # Fast-path: everything fits in one group (Algorithm 3's K = 1
        # special case — the original subgraph is the micro-batch).
        discounted_total = redundancy_group_estimate(
            estimator, base_buckets
        )
        if discounted_total <= self.memory_constraint:
            success, groups = mem_balanced_grouping(
                base_buckets, 1, self.memory_constraint, estimator
            )
            if success:
                return self._finish_plan(
                    SchedulePlan(
                        groups=groups,
                        k=1,
                        split_applied=False,
                        buckets=base_buckets,
                        estimator=estimator,
                    )
                )

        # Split once, K-independently: the explosion bucket (and any
        # other bucket) is cut into granules no larger than
        # ``split_granularity`` of the constraint.  All granule profiles
        # are computed in one batched walk, making each K iteration of
        # the search a pure packing problem (microseconds).  This
        # replaces Algorithm 3's per-K re-split with an equivalent but
        # far cheaper schedule: the packer can always reassemble K-split
        # groups from finer granules.
        granularity = (
            self.split_granularity
            if self.split_granularity is not None
            else 1.0
        )
        threshold = granularity * self.memory_constraint
        with tracer.span("schedule.split") as span:
            buckets, split_applied = self._split_oversize(
                base_buckets, estimator, threshold
            )
            if explosion is not None and not split_applied:
                # Tight corner: the explosion bucket fits the threshold
                # but K > 1 is needed; Algorithm 3 still splits it for
                # balance.
                buckets = [b for b in base_buckets if b is not explosion]
                buckets.extend(split_explosion_bucket(explosion, 2))
                split_applied = True
            span.set_attrs(
                {"n_buckets": len(buckets), "split": split_applied}
            )

        # Lower bound: any K-way grouping's largest group is at least
        # the discounted total divided by K.
        k = max(2, int(discounted_total / self.memory_constraint))
        with tracer.span("schedule.k_search") as span:
            attempts = 0
            while k <= self.k_max:
                attempts += 1
                success, groups = mem_balanced_grouping(
                    buckets, k, self.memory_constraint, estimator
                )
                if success:
                    if 1 < len(groups) <= 32:
                        groups = refine_balance(groups, estimator)
                    span.set_attrs(
                        {"attempts": attempts, "k": len(groups)}
                    )
                    return self._finish_plan(
                        SchedulePlan(
                            groups=groups,
                            k=len(groups),
                            split_applied=split_applied,
                            buckets=buckets,
                            estimator=estimator,
                        )
                    )
                # Adaptive step: when the worst group overflows the
                # budget by ratio r, at least ~r-times more groups are
                # needed.
                overflow = max(g.estimated_bytes for g in groups) / (
                    self.memory_constraint
                )
                lower_bound = int(
                    sum(g.estimated_bytes for g in groups)
                    / self.memory_constraint
                )
                k = max(k + 1, int(k * min(overflow, 1.5)), lower_bound)
            span.set_attr("attempts", attempts)

        raise SchedulingError(
            f"no feasible schedule within k_max={self.k_max} groups for "
            f"memory constraint {self.memory_constraint / 2**30:.2f} GiB"
        )

    def _finish_plan(self, plan: SchedulePlan) -> SchedulePlan:
        """Record schedule-level metrics before handing the plan out."""
        metrics = get_metrics()
        metrics.counter(
            "buffalo.schedules", help="successful scheduler runs"
        ).inc()
        metrics.histogram(
            "buffalo.groups_per_schedule",
            SMALL_COUNT_BUCKETS,
            help="bucket groups (K) per successful schedule",
        ).observe(plan.k)
        return plan

    def _split_oversize(
        self,
        buckets: list[Bucket],
        estimator: BucketMemEstimator,
        threshold: float,
    ) -> tuple[list[Bucket], bool]:
        """Split any bucket whose standalone estimate exceeds ``threshold``.

        Algorithm 3 splits only the explosion (cut-off) bucket.  This
        extension additionally splits (a) during the K search, buckets
        exceeding the full constraint — otherwise no K is feasible under
        very tight budgets — and (b) in the finalize pass, buckets above
        the granularity threshold so the bin packer balances groups
        tightly ("portions of large-sized degree-buckets", paper §IV-A).
        Iterates because shared dependencies make split-part memory
        sub-linear.
        """
        split_any = False
        for _ in range(4):
            estimator.profile_many(buckets)
            refined: list[Bucket] = []
            changed = False
            for bucket in buckets:
                estimate = estimator.estimate(bucket)
                if estimate > threshold and bucket.volume > 1:
                    n_parts = min(
                        int(estimate / threshold) + 1,
                        bucket.volume,
                    )
                    refined.extend(split_explosion_bucket(bucket, n_parts))
                    changed = True
                    split_any = True
                else:
                    refined.append(bucket)
            buckets = refined
            if not changed:
                break
        return buckets, split_any
