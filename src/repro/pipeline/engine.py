"""Staged micro-batch execution: block gen → feature staging → compute.

Algorithm 2 as written runs its bucket groups strictly sequentially,
so block generation and the host-side feature gather sit on the
critical path even though they are independent of device compute.
:class:`PipelineEngine` runs the K scheduled groups through a bounded
producer/consumer pipeline instead:

* **stage 0 — block generation** (worker thread): materializes each
  group's micro-batch with the fast generator;
* **stage 1 — feature staging** (worker thread): gathers the
  micro-batch's input-feature rows from host memory;
* **stage 2 — compute** (caller thread): forward/backward with
  gradient accumulation, device transfer + kernel simulation, exactly
  as :meth:`~repro.core.trainer.MicroBatchTrainer.train_iteration`
  performs them, on the device replica the placement assigned the
  group to.

Queues are depth-limited (``--pipeline-depth``), bounding how far
preparation may run ahead of compute.  The compute stage consumes
micro-batches **in schedule order** regardless of prefetch completion
order (a reorder buffer keyed by group index), and every gradient
operation happens on the caller thread in that order — so accumulation
is bit-for-bit identical to the sequential trainer and convergence
stays mathematically identical to full-batch training.

``mode="sync"`` (or ``depth <= 1``) runs the same staged code path
without threads — fully deterministic, op-for-op the sequential
Algorithm 2 schedule, and the default — while still measuring
per-stage durations for the analytic overlap model in
:mod:`repro.pipeline.model`.

This is the one iteration loop of the repo: every
:class:`~repro.core.api.BuffaloTrainer` iteration, on a fleet of any
size and under either placement policy, runs through :meth:`run`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.microbatch import MicroBatch, materialize_micro_batch
from repro.core.scheduler import SchedulePlan
from repro.core.trainer import (
    GradientContributions,
    MicroBatchTrainer,
    TrainResult,
)
from repro.datasets.catalog import Dataset
from repro.device.profiler import Profiler
from repro.errors import ConvergenceError, ReproError
from repro.graph.sampling import SampledBatch
from repro.obs.metrics import SECONDS_BUCKETS, get_metrics
from repro.obs.trace import get_tracer
from repro.pipeline.model import (
    StageTiming,
    pipeline_makespan,
    sequential_time,
)

#: Histogram edges for queue-wait / staging durations (seconds);
#: shared with the store's gather-latency histogram so the two are
#: directly comparable in one metrics snapshot.
STAGE_SECONDS_BUCKETS = SECONDS_BUCKETS

_DONE = object()


@dataclass
class PipelineConfig:
    """Knobs of the staged engine.

    Attributes:
        depth: prefetch-queue depth per stage boundary; ``1`` (or
            ``mode="sync"``) disables the worker threads.
        mode: ``"auto"`` picks threads when ``depth > 1``; ``"sync"``
            forces the deterministic in-line schedule; ``"threaded"``
            forces workers even at depth 1.
    """

    depth: int = 2
    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ReproError(
                f"pipeline depth must be >= 1, got {self.depth}"
            )
        if self.mode not in ("auto", "sync", "threaded"):
            raise ReproError(
                f"pipeline mode must be auto|sync|threaded, got {self.mode!r}"
            )

    @property
    def threaded(self) -> bool:
        if self.mode == "sync":
            return False
        if self.mode == "threaded":
            return True
        return self.depth > 1


@dataclass
class PipelineReport:
    """Per-iteration pipeline telemetry.

    Attributes:
        timings: per-micro-batch stage durations, schedule order.
        queue_wait_s: total seconds staged items sat ready in the
            prefetch queue before compute consumed them (threaded mode).
        makespan_s: modeled overlapped time of the measured stages at
            the configured depth.
        sequential_s: modeled strictly-serial time of the same stages.
    """

    depth: int
    mode: str
    timings: list[StageTiming] = field(default_factory=list)
    queue_wait_s: float = 0.0

    @property
    def makespan_s(self) -> float:
        return pipeline_makespan(self.timings, self.depth)

    @property
    def sequential_s(self) -> float:
        return sequential_time(self.timings)

    @property
    def modeled_speedup(self) -> float:
        makespan = self.makespan_s
        return self.sequential_s / makespan if makespan > 0 else 1.0


class PipelineEngine:
    """Drives one training iteration through the staged pipeline.

    Args:
        trainers: one micro-batch trainer per device replica (a single
            entry for one device); their ``begin_iteration`` /
            ``train_micro_batch`` / ``finish_iteration`` decomposition
            guarantees op-for-op identical accumulation.
        config: depth/mode knobs.
    """

    def __init__(
        self,
        trainers: list[MicroBatchTrainer],
        config: PipelineConfig | None = None,
    ) -> None:
        # The staging workers never touch the trainers or config: all
        # cross-thread traffic flows through the bounded queues in
        # _staged_threaded, so the engine itself needs no lock.
        self.trainers = list(trainers)  # guarded-by: consumer-thread (compute stage only)
        self.config = config or PipelineConfig()  # guarded-by: construction-only (read-only knobs)

    # ------------------------------------------------------------------
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
        """One full iteration over the plan's groups, pipelined.

        ``assignments[i]`` is the replica that computes group ``i``
        (all on replica 0 when omitted).  Groups are consumed in
        schedule order on the caller thread whatever their placement,
        every replica records into one shared
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

        report = PipelineReport(
            depth=self.config.depth,
            mode="threaded" if self.config.threaded else "sync",
        )
        tracer = get_tracer()
        metrics = get_metrics()

        contributions = GradientContributions()
        for trainer in self.trainers:
            trainer.begin_iteration(contributions)
        peaks: list[int] = []
        micro_batches: list[MicroBatch] = []

        if self.config.threaded:
            staged_items = self._staged_threaded(dataset, batch, groups)
        else:
            staged_items = self._staged_sync(
                dataset, batch, groups, profiler
            )

        for index, mb, features, gen_s, stage_s, queue_wait in staged_items:
            trainer = self.trainers[assignments[index]]
            device = trainer.device
            with tracer.span(
                "pipeline.compute",
                {"index": index, "queue_wait_s": queue_wait},
            ):
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
            report.queue_wait_s += queue_wait
            metrics.histogram(
                "buffalo.pipeline.queue_wait_s",
                STAGE_SECONDS_BUCKETS,
                help="seconds staged micro-batches waited for compute",
            ).observe(queue_wait)
            metrics.histogram(
                "buffalo.pipeline.staging_s",
                STAGE_SECONDS_BUCKETS,
                help="host feature-gather seconds per micro-batch",
            ).observe(stage_s)

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
        result = results[0]
        metrics.counter(
            "buffalo.pipeline.iterations",
            help="iterations executed by the staged engine",
        ).inc()
        metrics.gauge(
            "buffalo.pipeline.depth", help="configured prefetch depth"
        ).set(self.config.depth)
        metrics.gauge(
            "buffalo.pipeline.modeled_speedup",
            help="sequential / pipelined modeled time of the last iteration",
        ).set(report.modeled_speedup)
        return result, micro_batches, report

    # ------------------------------------------------------------------
    def _staged_sync(self, dataset, batch, groups, profiler):
        """Deterministic in-line staging: same stages, no threads."""
        tracer = get_tracer()
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
            yield index, mb, features, gen_s, stage_s, 0.0

    def _staged_threaded(self, dataset, batch, groups):
        """Two worker threads feed a reorder buffer the consumer drains.

        Workers never touch the model, optimizer, or simulated device —
        those stay on the caller thread — so the only cross-thread data
        are immutable micro-batches and freshly gathered feature arrays.
        """
        depth = self.config.depth
        blocks_q: queue.Queue = queue.Queue(maxsize=depth)
        staged_q: queue.Queue = queue.Queue(maxsize=depth)
        stop = threading.Event()
        tracer = get_tracer()

        def _put(q: queue.Queue, item) -> bool:
            while not stop.is_set():
                try:
                    q.put(item, timeout=0.05)
                    return True
                except queue.Full:
                    continue
            return False

        def _block_gen_worker() -> None:
            try:
                for index, group in enumerate(groups):
                    if stop.is_set():
                        return
                    with tracer.span(
                        "pipeline.block_gen", {"index": index}
                    ):
                        gen_start = time.perf_counter()
                        mb = materialize_micro_batch(batch, group)
                        gen_s = time.perf_counter() - gen_start
                    if not _put(blocks_q, (index, mb, gen_s)):
                        return
                _put(blocks_q, _DONE)
            except BaseException as exc:  # propagated to the consumer
                _put(blocks_q, ("error", exc))

        def _staging_worker() -> None:
            try:
                while not stop.is_set():
                    try:
                        item = blocks_q.get(timeout=0.05)
                    except queue.Empty:
                        continue
                    if item is _DONE:
                        _put(staged_q, _DONE)
                        return
                    if isinstance(item, tuple) and item[0] == "error":
                        _put(staged_q, item)
                        return
                    index, mb, gen_s = item
                    with tracer.span(
                        "pipeline.stage_features", {"index": index}
                    ):
                        stage_start = time.perf_counter()
                        features = dataset.features[
                            batch.node_map[mb.blocks[0].src_nodes]
                        ]
                        stage_s = time.perf_counter() - stage_start
                    ready = (
                        index, mb, features, gen_s, stage_s,
                        time.perf_counter(),
                    )
                    if not _put(staged_q, ready):
                        return
            except BaseException as exc:
                _put(staged_q, ("error", exc))

        workers = [
            threading.Thread(
                target=_block_gen_worker, name="buffalo-blockgen",
                daemon=True,
            ),
            threading.Thread(
                target=_staging_worker, name="buffalo-staging",
                daemon=True,
            ),
        ]
        for worker in workers:
            worker.start()

        # Reorder buffer: compute consumes strictly in schedule order
        # even if a future staging implementation completes out of
        # order.
        pending: dict[int, tuple] = {}
        expected = 0
        done = False
        try:
            while expected < len(groups):
                if expected in pending:
                    index, mb, features, gen_s, stage_s, ready_at = (
                        pending.pop(expected)
                    )
                    queue_wait = max(
                        time.perf_counter() - ready_at, 0.0
                    )
                    yield (
                        index, mb, features, gen_s, stage_s, queue_wait
                    )
                    expected += 1
                    continue
                if done:
                    raise ReproError(
                        "pipeline ended before micro-batch "
                        f"{expected} was staged"
                    )
                item = staged_q.get()
                if item is _DONE:
                    done = True
                    continue
                if isinstance(item, tuple) and item[0] == "error":
                    raise item[1]
                pending[item[0]] = item
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=5.0)
