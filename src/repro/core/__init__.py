"""Buffalo: the paper's primary contribution.

Components map one-to-one to the paper's §IV design:

* :mod:`fastblock` — accelerated block generation (§IV-E): CSR row
  slicing over the already-sampled subgraph, vectorized at node level.
* :mod:`estimator` — BucketMemEstimator and the redundancy-aware group
  estimator implementing Eq. 1–2 (§IV-D).
* :mod:`splitting` — SplitExplosionBucket (§IV-C).
* :mod:`grouping` — MemBalancedGrouping, Algorithm 4.
* :mod:`scheduler` — BuffaloScheduler, Algorithm 3.
* :mod:`microbatch` — micro-batch generation from bucket groups.
* :mod:`trainer` — Algorithm 2 training with gradient accumulation.
* :mod:`split_parallel` — the ``split`` placement policy for device
  fleets (partitioned features, joint (K, N) placement, halo pricing).
* :mod:`api` — :class:`BuffaloTrainer`, the one trainer over a fleet of
  N >= 1 devices.
"""

from repro.core.fastblock import generate_blocks_fast
from repro.core.estimator import (
    BucketMemEstimator,
    BucketProfile,
    redundancy_group_estimate,
)
from repro.core.splitting import split_explosion_bucket
from repro.core.grouping import BucketGroup, mem_balanced_grouping
from repro.core.scheduler import BuffaloScheduler, SchedulePlan
from repro.core.microbatch import MicroBatch, generate_micro_batches
from repro.core.trainer import (
    GradientContributions,
    MicroBatchTrainer,
    TrainResult,
)
from repro.core.symbolic import SymbolicResult, SymbolicTrainer
from repro.core.api import BuffaloTrainer, IterationReport
from repro.core.split_parallel import (
    SplitPlacement,
    ensure_group_count,
    partition_nodes,
    plan_placement,
)

__all__ = [
    "generate_blocks_fast",
    "BucketMemEstimator",
    "BucketProfile",
    "redundancy_group_estimate",
    "split_explosion_bucket",
    "BucketGroup",
    "mem_balanced_grouping",
    "BuffaloScheduler",
    "SchedulePlan",
    "MicroBatch",
    "generate_micro_batches",
    "MicroBatchTrainer",
    "TrainResult",
    "SymbolicTrainer",
    "SymbolicResult",
    "BuffaloTrainer",
    "IterationReport",
    "GradientContributions",
    "SplitPlacement",
    "partition_nodes",
    "plan_placement",
    "ensure_group_count",
]
