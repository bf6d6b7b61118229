"""Split-parallel scaling: bucket groups placed across a device fleet.

An extension beyond the paper (§V-G runs data parallelism): the
``split`` placement policy (:mod:`repro.core.split_parallel`)
partitions the feature matrix across N devices, extends Algorithm 3's
K-search to a joint (K, N) placement of bucket groups, and prices
halo-feature exchange plus the gradient all-reduce on the fleet's
interconnect clock.

One iteration of the standard benchmark workload runs at N = 1, 2, 4
on an NVLink-peered A100 fleet (the paper's 80 GB part; a PCIe fleet
is halo-bandwidth-bound at this workload's compute/traffic ratio)
under a constraint budgeted for ~``target_k`` groups (so K >= N and no
regrouping is needed — every fleet size executes the *same* schedule).
Reported per fleet size: simulated iteration time, speedup over N=1,
and halo-exchange vs all-reduce traffic.

Shape checks: the loss is **bit-for-bit identical** at every N (the
gradient-parity invariant extends to the fleet), N=2 shows sim-time
speedup > 1, halo traffic is positive at N >= 2 and zero at N = 1, and
every placement partitions the schedule's groups.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.bench.reporting import format_table
from repro.bench.workloads import load_bench, standard_spec
from repro.core.api import BuffaloTrainer
from repro.device.costmodel import NVLINK_A100
from repro.device.device import SimulatedGPU
from repro.device.fleet import DeviceFleet


def run(
    *,
    scale: float | None = None,
    seed: int = 0,
    n_seeds: int = 400,
    target_k: int = 8,
    fleet_sizes: tuple[int, ...] = (1, 2, 4),
) -> ExperimentOutput:
    dataset = load_bench("ogbn_arxiv", scale=scale, seed=seed)
    spec = standard_spec(dataset, aggregator="lstm", hidden=32)
    clustering = dataset.stats(clustering_sample=500)["avg_clustering"]
    seeds = dataset.train_nodes[:n_seeds]
    fanouts = [10, 25]

    # Probe the batch's total estimate, then budget for ~target_k
    # groups so K >= max(fleet_sizes) and every N shares one schedule.
    probe = BuffaloTrainer(
        dataset,
        spec,
        SimulatedGPU(capacity_bytes=1 << 40),
        fanouts=fanouts,
        seed=seed,
        clustering_coefficient=clustering,
        memory_constraint=float("inf"),
    )
    _, _, plan, _ = probe._plan_batch(seeds)
    constraint = 1.15 * sum(plan.estimated_bytes) / target_k

    results = {}
    for n in fleet_sizes:
        trainer = BuffaloTrainer(
            dataset,
            spec,
            DeviceFleet(n, capacity_bytes=1 << 40, spec=NVLINK_A100),
            fanouts=fanouts,
            memory_constraint=constraint,
            clustering_coefficient=clustering,
            seed=seed,
            parallel="split",
        )
        results[n] = trainer.run_iteration(seeds)

    base = results[fleet_sizes[0]]
    rows = []
    data: dict[str, dict] = {
        "loss": {f"n{n}": it.result.loss for n, it in results.items()},
        "k": {"k": base.n_micro_batches},
    }
    for n, it in results.items():
        speedup = base.sim_time_s / it.sim_time_s
        rows.append(
            [
                f"N={n}",
                it.n_micro_batches,
                f"{it.sim_time_s * 1e3:.3f}",
                f"{speedup:.2f}",
                f"{it.halo_bytes / 2**20:.2f}",
                f"{it.allreduce_bytes / 2**20:.2f}",
                f"{max(it.per_device_peaks) / 2**20:.1f}",
            ]
        )
        data[f"n{n}"] = {
            "sim_s": it.sim_time_s,
            "speedup": speedup,
            "halo_bytes": float(it.halo_bytes),
            "allreduce_bytes": float(it.allreduce_bytes),
            "halo_exchange_s": it.halo_exchange_s,
            "allreduce_s": it.comm_time_s,
            "worst_device_peak_bytes": float(max(it.per_device_peaks)),
        }

    losses = [it.result.loss for it in results.values()]
    multi = [n for n in fleet_sizes if n > 1]
    checks = {
        "k_covers_largest_fleet": (
            base.n_micro_batches >= max(fleet_sizes)
        ),
        "loss_bit_identical_across_fleet_sizes": all(
            loss == losses[0] for loss in losses
        ),
        "speedup_positive_at_n2": (
            2 not in results
            or base.sim_time_s / results[2].sim_time_s > 1.0
        ),
        "halo_traffic_positive_multi_device": all(
            results[n].halo_bytes > 0 for n in multi
        ),
        "no_halo_single_device": (
            fleet_sizes[0] != 1 or base.halo_bytes == 0
        ),
        "placements_partition_groups": all(
            sorted(
                i
                for d in range(n)
                for i in results[n].placement.groups_of(d)
            )
            == list(range(results[n].n_micro_batches))
            for n in fleet_sizes
        ),
    }
    table = format_table(
        [
            "fleet",
            "K",
            "sim ms",
            "speedup",
            "halo MiB",
            "allreduce MiB",
            "peak MiB",
        ],
        rows,
        title=(
            f"Split-parallel scaling — joint (K, N) placement "
            f"(ogbn_arxiv, K={base.n_micro_batches}, "
            f"loss parity {'exact' if checks['loss_bit_identical_across_fleet_sizes'] else 'BROKEN'})"
        ),
    )
    return ExperimentOutput(
        name="split_scaling",
        table=table,
        data=data,
        shape_checks=checks,
    )
