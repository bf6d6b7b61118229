"""High-level Buffalo facade: the one trainer, over a fleet of N >= 1.

Wires the full online pipeline of Fig. 6 for one training iteration:

1. sample a batch (subgraph) from the dataset;
2. generate the batch's blocks with the fast generator;
3. run the Buffalo scheduler (bucketize, split, group) under the memory
   constraint;
4. place the bucket groups on the fleet's devices (the ``data`` or
   ``split`` placement policy; trivial on one device);
5. per group, in schedule order: materialize the micro-batch (fast
   block generation), gather its input rows, and train it with gradient
   accumulation (Algorithm 2) — :func:`~repro.core.trainer.train_groups`,
   the one iteration loop — then reduce once and step every replica.

All phases are profiled with the Fig. 11 phase names.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from repro.core.fastblock import generate_blocks_fast
from repro.core.scheduler import BuffaloScheduler, SchedulePlan
from repro.core.split_parallel import (
    ShardStager,
    SplitPlacement,
    ensure_group_count,
    partition_nodes,
    plan_placement,
)
from repro.core.trainer import MicroBatchTrainer, TrainResult, train_groups
from repro.datasets.catalog import Dataset
from repro.device.device import SimulatedGPU
from repro.device.fleet import DeviceFleet
from repro.device.profiler import Profiler
from repro.errors import (
    DeviceOutOfMemoryError,
    ReproError,
    SchedulingError,
)
from repro.gnn.footprint import ModelSpec, input_feature_bytes
from repro.gnn.gat import GAT
from repro.gnn.gcn import GCN
from repro.gnn.sage import GraphSAGE
from repro.graph.sampling import sample_batch
from repro.kernels.dispatch import use_kernel_backend
from repro.nn.optim import Adam
from repro.obs.estimator import EstimatorTelemetry
from repro.obs.metrics import BYTE_BUCKETS, SMALL_COUNT_BUCKETS, get_metrics
from repro.obs.trace import get_tracer
from repro.store import FeatureStore


def build_model(spec: ModelSpec, *, rng: int = 0):
    """Instantiate the model a :class:`ModelSpec` describes."""
    if spec.aggregator == "attention":
        return GAT(
            spec.in_dim,
            spec.hidden_dim,
            spec.n_classes,
            spec.n_layers,
            heads=spec.heads,
            rng=rng,
        )
    if spec.aggregator == "gcn":
        return GCN(
            spec.in_dim,
            spec.hidden_dim,
            spec.n_classes,
            spec.n_layers,
            rng=rng,
        )
    return GraphSAGE(
        spec.in_dim,
        spec.hidden_dim,
        spec.n_classes,
        spec.n_layers,
        aggregator=spec.aggregator,
        dropout=spec.dropout,
        rng=rng,
    )


@dataclass
class IterationReport:
    """Everything one Buffalo iteration produced, on a fleet of N >= 1.

    Attributes:
        result: loss, per-micro-batch device peaks (schedule order) and
            the phase profiler.
        plan: the executed schedule (regrouped to K >= N by the
            ``split`` policy when Algorithm 3 returned fewer groups).
        assignments: device index of each bucket group, schedule order.
        per_device_peaks: worst micro-batch peak on each device.
        sim_time_s: the fleet clock after this iteration (slowest
            device plus all-reduce barriers).
        comm_time_s: simulated seconds of this iteration's gradient
            all-reduce (0 on one device).
        halo_bytes / halo_exchange_s: cross-partition feature traffic
            of this iteration (``split`` policy, N > 1; else 0).
        allreduce_bytes: gradient bytes all-reduced (0 on one device).
        placement: the ``split`` policy's joint (K, N) placement record
            (``None`` under the ``data`` policy).
    """

    result: TrainResult
    plan: SchedulePlan
    assignments: list[int]
    per_device_peaks: list[int]
    sim_time_s: float
    comm_time_s: float = 0.0
    halo_bytes: int = 0
    halo_exchange_s: float = 0.0
    allreduce_bytes: int = 0
    placement: SplitPlacement | None = None

    @property
    def n_micro_batches(self) -> int:
        return self.plan.k


class BuffaloTrainer:
    """End-to-end Buffalo training on a dataset — the only trainer.

    Args:
        dataset: a loaded :class:`~repro.datasets.catalog.Dataset`.
        spec: model description; ``spec.in_dim`` must equal the dataset's
            feature width.
        device: a :class:`~repro.device.device.SimulatedGPU` (the N = 1
            fleet) or a :class:`~repro.device.fleet.DeviceFleet`; every
            device holds an identically initialized model replica and
            supplies the per-micro-batch memory constraint.
        fanouts: per-layer sampling sizes, output layer first (these are
            also the bucketing cut-offs, as in the paper).
        memory_constraint: per-micro-batch byte budget; defaults to 90%
            of one device's capacity (headroom for parameters/optimizer).
        lr: Adam learning rate (one optimizer per replica).
        seed: RNG seed for sampling and model init.
        parallel: placement policy — where a bucket group runs and what
            staging its input rows costs (docs/distributed.md).
            ``"data"``: group ``i`` runs on device ``i mod N``, features
            live on the host and cross host->device per micro-batch.
            ``"split"``: the feature matrix is partitioned across the
            devices; groups are placed by estimated load
            (:func:`~repro.core.split_parallel.plan_placement`), owned
            rows are read from the local shard and halo rows cross the
            interconnect.  Gradients are bit-for-bit identical under
            either policy at any N.
        kernel_backend: bucket-aggregation kernel backend,
            ``"fused"`` (the default: CSR segment-reduce, no
            ``(n, d, f)`` neighbor tensor — see docs/kernels.md) or
            ``"reference"`` (the dense-gather oracle).
            Scheduling and execution both run under this backend so
            Eq. 1-2 estimates match the executed live set.

    Attributes:
        fleet: the device fleet (``DeviceFleet.of(device)`` for a bare
            GPU); ``device``, ``model`` and ``optimizer`` are replica
            0's, by convention.
        trainers: one :class:`~repro.core.trainer.MicroBatchTrainer`
            per device.
        store: the dataset's out-of-core
            :class:`~repro.store.FeatureStore` (``None`` for an
            in-memory feature matrix).
    """

    def __init__(
        self,
        dataset: Dataset,
        spec: ModelSpec,
        device: SimulatedGPU | DeviceFleet,
        fanouts: list[int],
        *,
        memory_constraint: float | None = None,
        lr: float = 1e-3,
        clustering_coefficient: float | None = None,
        seed: int = 0,
        k_max: int = 128,
        parallel: str = "data",
        kernel_backend: str = "fused",
    ) -> None:
        if spec.in_dim != dataset.feat_dim:
            raise SchedulingError(
                f"spec.in_dim ({spec.in_dim}) must match dataset features "
                f"({dataset.feat_dim})"
            )
        if len(fanouts) != spec.n_layers:
            raise SchedulingError(
                f"need one fanout per layer: got {len(fanouts)} fanouts "
                f"for {spec.n_layers} layers"
            )
        if parallel not in ("data", "split"):
            raise ReproError(
                f"parallel must be 'data' or 'split', got {parallel!r}"
            )
        fleet = (
            device
            if isinstance(device, DeviceFleet)
            else DeviceFleet.of(device)
        )
        self.dataset = dataset
        self.spec = spec
        self.fleet = fleet
        self.device = fleet.devices[0]
        self.parallel = parallel
        self.fanouts = list(fanouts)
        self.seed = seed
        capacity = self.device.capacity or 0
        if memory_constraint is None:
            memory_constraint = 0.9 * capacity if capacity else float("inf")
        if clustering_coefficient is None:
            clustering_coefficient = dataset.stats(
                clustering_sample=1000
            )["avg_clustering"]
        self.scheduler = BuffaloScheduler(
            spec,
            memory_constraint,
            cutoff=self.fanouts[0],
            clustering_coefficient=clustering_coefficient,
            k_max=k_max,
        )

        def replica(member: SimulatedGPU) -> MicroBatchTrainer:
            # Identical initialization on every replica.
            model = build_model(spec, rng=seed)
            return MicroBatchTrainer(
                model,
                spec,
                Adam(model.parameters(), lr=lr),
                member,
                kernel_backend=kernel_backend,
            )

        self.trainers = [replica(member) for member in fleet.devices]
        first = self.trainers[0]
        self.model = first.model
        self.optimizer = first.optimizer
        self.owner: np.ndarray | None = None
        if parallel == "split":
            # Per-device staging price: shard reads + halo exchange in
            # place of the host->device transfer.  The math is untouched.
            self.owner = partition_nodes(
                dataset.graph.n_nodes, fleet.n_devices
            )
            row_bytes = input_feature_bytes(1, dataset.feat_dim)
            for d, trainer in enumerate(self.trainers):
                trainer.stager = ShardStager(
                    fleet, d, self.owner, row_bytes
                )
        # Out-of-core datasets expose their features as a FeatureStore.
        self.store: FeatureStore | None = (
            dataset.features
            if isinstance(dataset.features, FeatureStore)
            else None
        )
        self.telemetry = EstimatorTelemetry()
        self.timeline = None
        self._iteration = 0

    # ------------------------------------------------------------------
    def attach_timeline(self, *, max_samples: int = 100_000):
        """Attach a three-tier memory timeline recorder to this trainer.

        Wires the recorder to the fleet's allocation ledgers
        (``live_bytes`` = sum over devices, ``peak_bytes`` = worst
        single device), the out-of-core feature store (when present),
        and the kernel workspace arena; every replica samples after
        each of its micro-batches.  Returns the recorder.
        """
        from repro.obs.observatory.timeline import MemoryTimelineRecorder

        self.timeline = MemoryTimelineRecorder(
            device=self.fleet,
            store=self.store,
            workspace=getattr(self.trainers[0].kernel, "workspace", None),
            max_samples=max_samples,
        )
        for trainer in self.trainers:
            trainer.timeline = self.timeline
        return self.timeline

    def detach_timeline(self) -> None:
        self.timeline = None
        for trainer in self.trainers:
            trainer.timeline = None

    # ------------------------------------------------------------------
    def _plan_batch(
        self,
        seeds: np.ndarray | None = None,
        *,
        profiler: Profiler | None = None,
    ):
        """Sample one batch and schedule it (no micro-batch generation).

        The Eq. 1-2 estimator consults the active backend's footprint
        formulas (fused retains less), so scheduling runs under the
        same backend the trainer executes with — otherwise K and the
        group boundaries would be planned for the wrong live set.
        """
        profiler = profiler or Profiler()
        if seeds is None:
            seeds = self.dataset.train_nodes
        with use_kernel_backend(self.trainers[0].kernel):
            with profiler.phase("sampling") as span:
                batch = sample_batch(
                    self.dataset.graph,
                    seeds,
                    self.fanouts,
                    rng=self.seed + self._iteration,
                )
                span.set_attrs(
                    {"n_seeds": batch.n_seeds, "n_layers": len(self.fanouts)}
                )
            with profiler.phase("block_generation") as span:
                blocks = generate_blocks_fast(batch)
                span.set_attr("n_input", blocks[0].n_src)
            with profiler.phase("buffalo_scheduling") as span:
                plan = self.scheduler.schedule(batch, blocks)
                span.set_attrs({"k": plan.k, "split": plan.split_applied})
        return batch, blocks, plan, profiler

    def _place(self, batch, blocks, plan, profiler):
        """Apply the placement policy to a scheduled batch.

        Returns ``(plan, assignments, placement)``: the plan (regrouped
        to K >= N by the split policy if need be), the group -> device
        assignment, and the split policy's placement record (``None``
        under ``data``).
        """
        n_devices = self.fleet.n_devices
        if self.parallel == "data":
            return plan, [i % n_devices for i in range(plan.k)], None
        constraint = self.scheduler.memory_constraint
        with profiler.phase("buffalo_scheduling"):
            plan, regrouped = ensure_group_count(
                plan, n_devices, constraint
            )
        # The groups' *global* input node sets, schedule order: what
        # the placement weighs halo traffic with.
        input_sets = [
            batch.node_map[s] for s in plan.input_node_sets(blocks)
        ]
        with profiler.phase("placement"), get_tracer().span(
            "split.placement", {"k": plan.k, "n_devices": n_devices}
        ) as span:
            placement = plan_placement(
                plan, input_sets, n_devices, constraint, self.owner
            )
            placement.regrouped = regrouped
            span.set_attrs(
                {
                    "regrouped": regrouped,
                    "halo_rows": placement.halo_bytes_estimate,
                }
            )
        return plan, placement.assignments, placement

    def run_iteration(
        self,
        seeds: np.ndarray | None = None,
        *,
        max_oom_retries: int = 2,
    ) -> IterationReport:
        """One full online-training iteration (Fig. 6 pipeline).

        Plan (sample -> blocks -> schedule -> place), execute the groups
        in schedule order through the one iteration loop — each on its
        assigned device's replica, all recording into one shared
        schedule-order gradient reduction that every replica installs
        before stepping — then price one gradient all-reduce on the
        fleet clock (0 s on one device) and check the replicas are
        still bit-identical.

        OOM resilience: the memory estimator is analytical, so a group
        can occasionally exceed its estimate during concrete execution.
        When a device raises OOM mid-iteration, the scheduler's
        constraint is tightened by 25% and the iteration is re-planned
        and retried (up to ``max_oom_retries`` times) — the same
        fallback a production system performs.  The tightened
        constraint persists for subsequent iterations (the estimator's
        bias is systematic, not per-batch).

        Raises:
            DeviceOutOfMemoryError: when retries are exhausted.
        """
        cutoffs = list(reversed(self.fanouts))
        last_oom: DeviceOutOfMemoryError | None = None
        tracer = get_tracer()
        metrics = get_metrics()
        fleet = self.fleet
        if self.timeline is not None:
            self.timeline.begin_iteration(self._iteration)
        for attempt in range(max_oom_retries + 1):
            with tracer.span(
                "buffalo.iteration",
                {"iteration": self._iteration, "attempt": attempt},
            ) as iter_span:
                try:
                    batch, blocks, plan, profiler = self._plan_batch(seeds)
                    plan, assignments, placement = self._place(
                        batch, blocks, plan, profiler
                    )
                    # Only planning reads the whole-batch chain (the
                    # plan's estimator walks it); each group trains on
                    # blocks of its own, so release it before the
                    # groups' activations pile up.
                    plan.estimator = None
                    del blocks
                except SchedulingError:
                    # A tightened constraint can become unschedulable;
                    # that is the same terminal condition as the OOM
                    # that caused the tightening.
                    if last_oom is not None:
                        raise last_oom
                    raise
                oom_info: tuple[int, int, int] | None = None
                halo_before = fleet.halo_bytes
                exchange_before = fleet.exchange_time_s
                allreduce_before = fleet.allreduce_bytes
                try:
                    result = train_groups(
                        self.trainers,
                        self.dataset,
                        batch.node_map,
                        plan.groups,
                        cutoffs,
                        profiler,
                        batch=batch,
                        assignments=assignments,
                    )
                except DeviceOutOfMemoryError as exc:
                    if attempt == max_oom_retries:
                        raise
                    oom_info = (exc.requested, exc.live, exc.capacity)
                if oom_info is None:
                    iter_span.set_attrs(
                        {
                            "k": plan.k,
                            "loss": result.loss,
                            "peak_bytes": result.peak_bytes,
                        }
                    )
            if oom_info is not None:
                # Outside the except block the handled exception (and
                # its traceback, which pins the failed iteration's
                # activation graph in the device ledger) is released.
                last_oom = DeviceOutOfMemoryError(*oom_info)
                del batch, plan, placement, profiler
                gc.collect()
                # Snap to the tightest device's real headroom (minus
                # resident parameters), then keep shaving 25% per
                # further OOM.
                tightened = 0.75 * self.scheduler.memory_constraint
                if self.device.capacity:
                    headroom = 0.85 * min(
                        d.capacity - d.live_bytes for d in fleet.devices
                    )
                    tightened = min(tightened, headroom)
                self.scheduler.memory_constraint = max(tightened, 1.0)
                metrics.counter(
                    "buffalo.oom_retries",
                    help="iterations re-planned after device OOM",
                ).inc()
                continue
            comm_s = fleet.allreduce(self.spec.param_bytes())
            self._verify_sync()
            per_device_peaks = [0] * fleet.n_devices
            for d, peak in zip(assignments, result.micro_batch_peaks):
                per_device_peaks[d] = max(per_device_peaks[d], peak)
            report = IterationReport(
                result=result,
                plan=plan,
                assignments=assignments,
                per_device_peaks=per_device_peaks,
                sim_time_s=fleet.sim_time_s,
                comm_time_s=comm_s,
                halo_bytes=fleet.halo_bytes - halo_before,
                halo_exchange_s=fleet.exchange_time_s - exchange_before,
                allreduce_bytes=fleet.allreduce_bytes - allreduce_before,
                placement=placement,
            )
            self._record_metrics(report)
            self.telemetry.record_iteration(
                self._iteration,
                plan.estimated_bytes,
                result.micro_batch_peaks,
            )
            if self.timeline is not None:
                self.timeline.sample("iteration_end")
            self._iteration += 1
            return report
        raise AssertionError("unreachable")  # pragma: no cover

    def _record_metrics(self, report: IterationReport) -> None:
        metrics = get_metrics()
        metrics.counter(
            "buffalo.iterations", help="completed training iterations"
        ).inc()
        metrics.histogram(
            "buffalo.micro_batches_per_iter",
            SMALL_COUNT_BUCKETS,
            help="K (micro-batches) per iteration",
        ).observe(report.plan.k)
        metrics.gauge(
            "buffalo.peak_mem_bytes",
            help="device peak bytes of the last iteration",
        ).set(report.result.peak_bytes)
        metrics.gauge(
            "buffalo.device.count", help="devices in the training fleet"
        ).set(self.fleet.n_devices)
        peaks = metrics.histogram(
            "buffalo.device.peak_bytes",
            BYTE_BUCKETS,
            help="per-device peak bytes per iteration",
        )
        for peak in report.per_device_peaks:
            peaks.observe(peak)
        metrics.counter(
            "buffalo.device.halo_bytes",
            help="halo feature bytes exchanged across partitions",
        ).inc(report.halo_bytes)
        metrics.counter(
            "buffalo.device.allreduce_bytes",
            help="gradient bytes all-reduced across the fleet",
        ).inc(report.allreduce_bytes)
        metrics.counter(
            "buffalo.device.halo_exchange_s",
            help="simulated seconds of halo-feature exchange",
        ).inc(report.halo_exchange_s)
        metrics.counter(
            "buffalo.device.allreduce_s",
            help="simulated seconds of gradient all-reduce",
        ).inc(report.comm_time_s)

    def _verify_sync(self) -> None:
        """Replicas must stay bit-identical after each step."""
        others = self.trainers[1:]
        if not others:
            return
        reference = self.model.state_dict()
        for trainer in others:
            state = trainer.model.state_dict()
            for key, value in reference.items():
                if not np.array_equal(value, state[key]):
                    raise ReproError(
                        f"replica desynchronized at parameter {key}"
                    )

    def train_epochs(
        self, n_iterations: int, seeds: np.ndarray | None = None
    ) -> list[float]:
        """Run several iterations; returns the loss curve."""
        return [
            self.run_iteration(seeds).result.loss
            for _ in range(n_iterations)
        ]
