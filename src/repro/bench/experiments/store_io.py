"""Store I/O: out-of-core feature gathers vs the in-memory matrix.

The out-of-core store (:mod:`repro.store`) trades feature-matrix
residency for per-gather shard reads plus a degree-ordered hot-node
cache.  This experiment quantifies that trade on the suite's largest
synthetic workload (ogbn_papers at benchmark scale):

1. build a store from the in-memory dataset;
2. replay a realistic gather trace — the per-bucket-group input-node
   sets of a scheduled training batch, the rows each group's staging
   gather reads;
3. time the trace against the in-memory matrix and against the store at
   several hot-cache sizes, recording mean/p95 gather latency, the
   hot-cache hit rate, and bytes read from disk.

Shape checks: every store gather is bitwise equal to the in-memory
gather; a bigger hot cache never lowers the hit rate; the hot cache
cuts disk traffic; resident store bytes stay far below the full
feature matrix.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import ExperimentOutput
from repro.bench.reporting import format_table
from repro.bench.workloads import DEFAULT_FANOUTS, load_bench, standard_spec
from repro.core.api import BuffaloTrainer
from repro.device.device import SimulatedGPU
from repro.obs.metrics import Histogram
from repro.store import FeatureStore, build_store

#: Quarter-decade log-spaced latency buckets, 1 ns .. ~10 s — fine
#: enough that the interpolated p95 tracks the exact one closely.
_LATENCY_BUCKETS = tuple(float(10 ** (e / 4.0)) for e in range(-36, 5))


def _gather_trace(dataset, *, seed: int, n_seeds: int, target_k: int):
    """Per-group global input-node sets of one scheduled batch."""
    spec = standard_spec(dataset, aggregator="mean", hidden=32)
    probe = BuffaloTrainer(
        dataset,
        spec,
        SimulatedGPU(capacity_bytes=1 << 40),
        fanouts=list(DEFAULT_FANOUTS),
        seed=seed,
        memory_constraint=float("inf"),
    )
    rng = np.random.default_rng(seed + 1000)
    sets: list[np.ndarray] = []
    for batch_idx in range(4):
        seeds = np.sort(
            rng.choice(dataset.train_nodes, size=n_seeds, replace=False)
        )
        batch, blocks, plan, _ = probe._plan_batch(seeds)
        total = sum(plan.estimated_bytes)
        constrained = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=1 << 40),
            fanouts=list(DEFAULT_FANOUTS),
            seed=seed,
            memory_constraint=1.15 * total / target_k,
        )
        batch, blocks, plan, _ = constrained._plan_batch(seeds)
        sets.extend(
            batch.node_map[s] for s in plan.input_node_sets(blocks)
        )
    return sets


def _time_backend(gather, sets, repeats: int):
    """Mean and p95 per-gather latency over ``repeats`` trace replays.

    The p95 comes from the shared streaming-quantile helper
    (:meth:`repro.obs.metrics.Histogram.quantile`) so the experiment
    and the live ``buffalo.store.gather_s`` histogram agree on method;
    the mean is exact (tracked sum/count).
    """
    hist = Histogram("store_io.gather_s", _LATENCY_BUCKETS)
    for _ in range(repeats):
        for ids in sets:
            start = time.perf_counter()
            gather(ids)
            hist.observe(time.perf_counter() - start)
    return float(hist.mean), float(hist.quantile(0.95))


def run(
    *,
    scale: float | None = None,
    seed: int = 0,
    n_seeds: int = 512,
    target_k: int = 8,
    hot_fracs: tuple[float, ...] = (0.0, 0.05, 0.2),
    repeats: int = 3,
) -> ExperimentOutput:
    dataset = load_bench("ogbn_papers", scale=scale, seed=seed)
    features = np.asarray(dataset.features)
    sets = _gather_trace(
        dataset, seed=seed, n_seeds=n_seeds, target_k=target_k
    )
    trace_rows = int(sum(s.size for s in sets))

    tmp = Path(tempfile.mkdtemp(prefix="repro-store-io-"))
    try:
        root = tmp / f"{dataset.name}.store"
        build_store(dataset, root, shard_rows=1024)

        mem_mean, mem_p95 = _time_backend(
            lambda ids: features[ids], sets, repeats
        )
        rows = [
            [
                "in-memory",
                "-",
                f"{mem_mean * 1e6:.1f}",
                f"{mem_p95 * 1e6:.1f}",
                "-",
                "-",
            ]
        ]
        data: dict[str, dict] = {
            "trace": {"sets": len(sets), "rows": trace_rows},
            "in_memory": {"mean_us": mem_mean * 1e6, "p95_us": mem_p95 * 1e6},
        }

        configs = []
        for frac in hot_fracs:
            hot_bytes = int(frac * features.nbytes)
            store = FeatureStore(root, hot_cache_bytes=hot_bytes)
            bitwise = all(
                np.array_equal(store.gather(ids), features[ids])
                for ids in sets[: max(4, len(sets) // 8)]
            )
            store.reset_stats()
            mean_s, p95_s = _time_backend(store.gather, sets, repeats)
            configs.append(
                {
                    "frac": frac,
                    "bitwise": bitwise,
                    "hit_rate": store.hot_hit_rate,
                    "disk_mib": store.bytes_read / 2**20,
                    "resident": store.resident_bytes,
                    "mean_us": mean_s * 1e6,
                    "p95_us": p95_s * 1e6,
                }
            )
            rows.append(
                [
                    f"store hot={frac:.0%}",
                    f"{store.hot_rows}",
                    f"{mean_s * 1e6:.1f}",
                    f"{p95_s * 1e6:.1f}",
                    f"{store.hot_hit_rate:.1%}",
                    f"{store.bytes_read / 2**20:.2f}",
                ]
            )
            data[f"hot_{frac:.0%}"] = configs[-1]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    hit_rates = [c["hit_rate"] for c in configs]
    disk = [c["disk_mib"] for c in configs]
    checks = {
        "store_gathers_bitwise_equal": all(c["bitwise"] for c in configs),
        "hit_rate_monotone_in_cache_size": all(
            a <= b + 1e-12 for a, b in zip(hit_rates, hit_rates[1:])
        ),
        "hot_cache_cuts_disk_traffic": disk[-1] < disk[0],
        "resident_far_below_full_matrix": all(
            c["resident"] < 0.5 * features.nbytes for c in configs
        ),
        "trace_has_multiple_groups": len(sets) >= 2 * target_k,
    }
    table = format_table(
        [
            "backend",
            "hot rows",
            "gather mean us",
            "gather p95 us",
            "hot hit rate",
            "disk MiB",
        ],
        rows,
        title=(
            f"Store I/O — {dataset.name} ({dataset.n_nodes:,} nodes, "
            f"{features.nbytes / 2**20:.1f} MiB features), "
            f"{len(sets)} group gathers x{repeats}"
        ),
    )
    return ExperimentOutput(
        name="store_io", table=table, data=data, shape_checks=checks
    )
