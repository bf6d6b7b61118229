"""The iteration loop: block gen → feature staging → compute, in line.

Algorithm 2 runs its bucket groups strictly one after another, and so
does :class:`PipelineEngine`: for each scheduled group, on the caller
thread and in schedule order,

* **block generation** — materialize the group's micro-batch with the
  fast generator;
* **feature staging** — gather the micro-batch's input-feature rows
  from ``dataset.features`` (host memory or the out-of-core store);
* **compute** — forward/backward with gradient accumulation, device
  transfer + kernel simulation, exactly as
  :meth:`~repro.core.trainer.MicroBatchTrainer.train_iteration`
  performs them, on the device replica the placement assigned the
  group to.

Each stage is timed per micro-batch (:class:`StageTiming`).  The stages
are deliberately not overlapped on worker threads: measured end to end
under CPython that costs more than it hides (docs/pipeline.md).

This is the one iteration loop of the repo: every
:class:`~repro.core.api.BuffaloTrainer` iteration, on a fleet of any
size and under either placement policy, runs through :meth:`run`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.microbatch import MicroBatch, materialize_micro_batch
from repro.core.scheduler import SchedulePlan
from repro.core.trainer import (
    GradientContributions,
    MicroBatchTrainer,
    TrainResult,
)
from repro.datasets.catalog import Dataset
from repro.device.profiler import Profiler
from repro.errors import ConvergenceError
from repro.graph.sampling import SampledBatch
from repro.obs.metrics import SECONDS_BUCKETS, get_metrics
from repro.obs.trace import get_tracer
from repro.pipeline.model import StageTiming


@dataclass
class PipelineReport:
    """Per-iteration stage telemetry.

    Attributes:
        timings: per-micro-batch stage durations, schedule order.
    """

    timings: list[StageTiming] = field(default_factory=list)


class PipelineEngine:
    """Drives one training iteration over the scheduled groups.

    Args:
        trainers: one micro-batch trainer per device replica (a single
            entry for one device); their ``begin_iteration`` /
            ``train_micro_batch`` / ``finish_iteration`` decomposition
            guarantees op-for-op identical accumulation.
    """

    def __init__(self, trainers: list[MicroBatchTrainer]) -> None:
        self.trainers = list(trainers)

    def run(
        self,
        dataset: Dataset,
        batch: SampledBatch,
        plan: SchedulePlan,
        cutoffs: list[int],
        *,
        assignments: list[int] | None = None,
        profiler: Profiler | None = None,
    ) -> tuple[TrainResult, list[MicroBatch], PipelineReport]:
        """One full iteration over the plan's groups.

        ``assignments[i]`` is the replica that computes group ``i``
        (all on replica 0 when omitted).  Groups are consumed in
        schedule order whatever their placement, every replica records
        into one shared
        :class:`~repro.core.trainer.GradientContributions`, and every
        replica installs the same schedule-order reduction before its
        optimizer step — so the result is bit-for-bit the single-device
        one.

        Returns replica 0's :class:`TrainResult` (per-micro-batch peaks
        in schedule order), the micro-batches in schedule order, and the
        stage-timing report.
        """
        profiler = profiler or Profiler()
        groups = plan.groups
        total_outputs = sum(g.n_output for g in groups)
        if total_outputs == 0:
            raise ConvergenceError("no output nodes to train on")
        if assignments is None:
            assignments = [0] * len(groups)

        report = PipelineReport()
        tracer = get_tracer()
        metrics = get_metrics()
        staging_seconds = metrics.histogram(
            "buffalo.pipeline.staging_s",
            SECONDS_BUCKETS,
            help="host feature-gather seconds per micro-batch",
        )

        contributions = GradientContributions()
        for trainer in self.trainers:
            trainer.begin_iteration(contributions)
        peaks: list[int] = []
        micro_batches: list[MicroBatch] = []

        for index, group in enumerate(groups):
            with profiler.phase("block_generation"), tracer.span(
                "pipeline.block_gen", {"index": index}
            ):
                gen_start = time.perf_counter()
                mb = materialize_micro_batch(batch, group)
                gen_s = time.perf_counter() - gen_start
            with tracer.span("pipeline.stage_features", {"index": index}):
                stage_start = time.perf_counter()
                features = dataset.features[
                    batch.node_map[mb.blocks[0].src_nodes]
                ]
                stage_s = time.perf_counter() - stage_start
            trainer = self.trainers[assignments[index]]
            device = trainer.device
            with tracer.span("pipeline.compute", {"index": index}):
                sim_before = device.sim_time_s if device is not None else 0.0
                compute_start = time.perf_counter()
                _, peak = trainer.train_micro_batch(
                    dataset,
                    batch.node_map,
                    mb,
                    cutoffs,
                    total_outputs,
                    profiler,
                    index=index,
                    staged_features=features,
                )
                compute_s = time.perf_counter() - compute_start
                if device is not None:
                    compute_s += device.sim_time_s - sim_before
            if peak is not None:
                peaks.append(peak)
            micro_batches.append(mb)
            report.timings.append(
                StageTiming(
                    block_gen_s=gen_s,
                    staging_s=stage_s,
                    compute_s=compute_s,
                )
            )
            staging_seconds.observe(stage_s)

        # One canonical reduction, installed on every replica:
        # identical gradients -> identical steps -> replicas stay in sync.
        reduced = contributions.reduced()
        loss = contributions.reduced_loss()
        results = [
            trainer.finish_iteration(
                loss, peaks, len(micro_batches), profiler, reduced=reduced
            )
            for trainer in self.trainers
        ]
        metrics.counter(
            "buffalo.pipeline.iterations",
            help="iterations executed by the engine",
        ).inc()
        return results[0], micro_batches, report
