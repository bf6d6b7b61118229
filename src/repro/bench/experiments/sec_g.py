"""Section V-G: multi-GPU scaling.

Repeats the Fig. 15 setup on two data-parallel simulated GPUs: Buffalo's
micro-batches are distributed across devices; gradients all-reduce over
PCIe.  The paper's finding: because micro-batch *generation* (CPU-side)
dominates the iteration and only GPU compute parallelizes, two GPUs
shave just 3–5% off iteration time, with training only 9–12% of the
total and ~1% added communication.
"""

from __future__ import annotations

from repro.bench.experiments.common import prepare_batch
from repro.bench.harness import ExperimentOutput
from repro.bench.reporting import format_table
from repro.bench.workloads import budget_bytes, load_bench, standard_spec
from repro.core.microbatch import generate_micro_batches
from repro.core.scheduler import BuffaloScheduler
from repro.core.symbolic import SymbolicTrainer
from repro.device.fleet import DeviceFleet


def _iteration_time(
    prepared, spec, scheduler, n_devices: int, budget: int, cpu_s: float
) -> dict:
    """End-to-end time with micro-batches round-robined over devices.

    The CPU side — Buffalo scheduling plus micro-batch (block)
    generation — is serial regardless of device count, so the same
    measured ``cpu_s`` applies to every device count (re-measuring it
    would only inject wall-clock jitter into the comparison); only GPU
    compute parallelizes.  That asymmetry is the paper's §V-G finding.
    """
    plan = scheduler.schedule(prepared.batch, prepared.blocks)
    micro_batches = generate_micro_batches(prepared.batch, plan)

    group = DeviceFleet(n_devices, capacity_bytes=budget)
    trainers = [SymbolicTrainer(spec, d) for d in group.devices]
    for i, mb in enumerate(micro_batches):
        trainers[i % n_devices].iterate([mb.blocks])
    comm_s = group.allreduce(spec.param_bytes())
    gpu_s = max(d.sim_time_s for d in group.devices)
    return {
        "cpu_s": cpu_s,
        "gpu_s": gpu_s,
        "comm_s": comm_s,
        "total_s": cpu_s + gpu_s + comm_s,
    }


def run(
    *,
    scale: float | None = None,
    seed: int = 0,
    n_seeds: int = 800,
    paper_budget_gb: float = 24.0,
) -> ExperimentOutput:
    dataset = load_bench("ogbn_products", scale=scale, seed=seed)
    budget = budget_bytes(dataset, paper_budget_gb)
    prepared = prepare_batch(dataset, [10, 25], n_seeds=n_seeds, seed=seed)
    spec = standard_spec(dataset, aggregator="lstm", hidden=128)
    clustering = dataset.stats(clustering_sample=500)["avg_clustering"]

    scheduler = BuffaloScheduler(
        spec, 0.9 * budget, cutoff=10, clustering_coefficient=clustering
    )
    import time

    start = time.perf_counter()
    plan = scheduler.schedule(prepared.batch, prepared.blocks)
    generate_micro_batches(prepared.batch, plan)
    cpu_s = time.perf_counter() - start

    one = _iteration_time(prepared, spec, scheduler, 1, budget, cpu_s)
    two = _iteration_time(prepared, spec, scheduler, 2, budget, cpu_s)

    speedup = 1.0 - two["total_s"] / one["total_s"]
    train_share = one["gpu_s"] / one["total_s"]
    comm_share = two["comm_s"] / two["total_s"]
    rows = [
        ["1 GPU", one["cpu_s"], one["gpu_s"], one["comm_s"], one["total_s"]],
        ["2 GPUs", two["cpu_s"], two["gpu_s"], two["comm_s"], two["total_s"]],
    ]
    checks = {
        "two_gpus_slightly_faster": 0.0 < speedup < 0.5,
        "training_is_minor_share": train_share < 0.5,
        "comm_overhead_small": comm_share < 0.05,
    }
    table = format_table(
        ["devices", "cpu prep s", "gpu s", "comm s", "total s"],
        rows,
        title=(
            f"Sec V-G — multi-GPU (K={plan.k}): 2-GPU speedup "
            f"{speedup * 100:.1f}%, training share "
            f"{train_share * 100:.1f}%, comm {comm_share * 100:.2f}%"
        ),
    )
    return ExperimentOutput(
        name="sec_g",
        table=table,
        data={
            "one_gpu": one,
            "two_gpu": two,
            "speedup": speedup,
            "train_share": train_share,
            "comm_share": comm_share,
        },
        shape_checks=checks,
    )
