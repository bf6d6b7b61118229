"""Micro-batch generation from scheduled bucket groups.

Each bucket group's output rows become the seed set of a fresh block
chain built with Buffalo's fast generator; the resulting
:class:`MicroBatch` carries everything a trainer needs (blocks + the
positions of its outputs within the original batch's seed order, for
label lookup and convergence bookkeeping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fastblock import generate_blocks_fast
from repro.core.grouping import BucketGroup
from repro.core.scheduler import SchedulePlan
from repro.gnn.block import Block
from repro.graph.sampling import SampledBatch
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer


@dataclass
class MicroBatch:
    """One schedulable unit of training work.

    Attributes:
        blocks: chained blocks, input-most first; the output block's
            destinations are exactly this micro-batch's output nodes.
        seed_rows: positions of the outputs within the parent batch's
            seed array (ascending).
        group: the bucket group this micro-batch was built from.
    """

    blocks: list[Block]
    seed_rows: np.ndarray
    group: BucketGroup

    @property
    def n_output(self) -> int:
        return int(self.seed_rows.size)

    @property
    def n_input(self) -> int:
        """Input-layer width (nodes whose features must be loaded)."""
        return self.blocks[0].n_src

    def __repr__(self) -> str:
        return (
            f"MicroBatch(n_output={self.n_output}, "
            f"n_input={self.n_input}, layers={len(self.blocks)})"
        )


def materialize_micro_batch(
    batch: SampledBatch, group: BucketGroup
) -> MicroBatch:
    """Build the micro-batch of one scheduled bucket group.

    The parent batch's seeds occupy locals ``0..n_seeds``, so a group's
    output rows are directly the local seed ids to expand from.  This is
    the unit of work the iteration loop's block-generation step runs;
    :func:`generate_micro_batches` is the eager all-groups wrapper.
    """
    rows = group.rows  # sorted ascending
    blocks = generate_blocks_fast(batch, rows)
    micro_batch = MicroBatch(blocks=blocks, seed_rows=rows, group=group)
    get_metrics().counter(
        "buffalo.micro_batches_generated",
        help="micro-batches materialized from bucket groups",
    ).inc()
    return micro_batch


def generate_micro_batches(
    batch: SampledBatch, plan: SchedulePlan
) -> list[MicroBatch]:
    """Materialize one micro-batch per scheduled bucket group."""
    micro_batches = []
    with get_tracer().span(
        "micro_batch_generation", {"k": plan.k}
    ) as span:
        for group in plan.groups:
            micro_batches.append(materialize_micro_batch(batch, group))
        span.set_attr(
            "total_inputs", sum(mb.n_input for mb in micro_batches)
        )
    return micro_batches


def micro_batch_coverage(micro_batches: list[MicroBatch], n_seeds: int) -> bool:
    """True when the micro-batches' outputs partition all seeds."""
    covered = np.concatenate([mb.seed_rows for mb in micro_batches])
    return (
        covered.size == n_seeds
        and np.array_equal(np.sort(covered), np.arange(n_seeds))
    )
