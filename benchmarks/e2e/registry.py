"""Names of the benchmark's workloads and metrics, in one place.

``BENCHMARK.json`` at the repository root is generated from this file
(``python benchmarks/e2e/registry.py > BENCHMARK.json``) and the test
suite fails when the two differ, so the harness and the manifest the
driver reads cannot drift apart.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 15

WORKLOADS = [
    {
        "name": "train_mean_wide",
        "why": "K=1 per batch, so bucketization is bypassed: time sits in "
        "dense autograd, neighbour sampling and block generation",
    },
    {
        "name": "train_lstm_tight",
        "why": "LSTM aggregator under a tight budget (K~10): per-bucket "
        "aggregate forward and its backward do ~90% of the work",
    },
    {
        "name": "train_store_tight",
        "why": "out-of-core features, threaded pipeline, fused kernels, "
        "K~24 small micro-batches: per-group costs and shard reads dominate",
    },
    {
        "name": "serve_live",
        "why": "bypasses training: live server, open loop with a hot "
        "cache for latency, closed loop with no cache for capacity",
    },
]

#: What each end-to-end metric means on the two kinds of workload.  One
#: list serves all four because the driver wants every metric from every
#: run; the README maps these names to the ones in the issue.
END_TO_END = [
    {
        "name": "latency_p50_ms", "unit": "ms", "better": "lower",
        "bound": 0.15,
        "train": "median wall time of the timed epochs",
        "serve": "median latency from due time, open loop, after the "
        "untimed warm-up requests",
    },
    {
        "name": "latency_tail_ms", "unit": "ms", "better": "lower",
        "bound": 0.25,
        "train": "upper quartile of the timed epochs (5 to 8 of them: the "
        "slowest one alone repeats worst)",
        "serve": "95th percentile of the same open-loop samples",
    },
    {
        "name": "throughput_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.18,
        "train": "seed nodes trained per second over all timed epochs",
        "serve": "requests served per second, closed loop, 64 in flight",
    },
    {
        "name": "peak_rss_mb", "unit": "MiB", "better": "lower",
        "bound": 0.15,
        "train": "process peak RSS after the timed epochs",
        "serve": "process peak RSS after both phases",
    },
    {
        "name": "setup_s", "unit": "s", "better": "lower",
        "bound": 0.25,
        "train": "process start to trainer ready, median of 3 cold set-ups",
        "serve": "process start to server started, median of 3 cold set-ups",
    },
]

_TRAIN_TIME = "latency_p50_ms, throughput_per_s"


def _layer(layer: str, moves: str, *rows) -> list[dict]:
    return [
        {"name": f"{layer}.{stem}", "unit": unit, "better": better,
         "layer": layer, "moves": moves}
        for stem, unit, better in rows
    ]


_SERVE_PHASE_ROWS = [
    ("queue_wait_s", "s", "lower"),
    ("predict_busy_s", "s", "lower"),
    ("sample_s", "s", "lower"),
    ("forward_s", "s", "lower"),
    ("cache_s", "s", "lower"),
    ("predict_other_s", "s", "lower"),
    ("submit_s", "s", "lower"),
    ("cache_hit_ratio", "ratio", "higher"),
    ("mean_batch_size", "count", "higher"),
    ("batches", "count", "lower"),
    ("computed_requests", "count", "lower"),
]

#: Per-layer metrics: a layer is a ``repro`` sub-package.  ``moves`` says
#: which end-to-end metric the row should move and on which workload.
PER_LAYER = (
    _layer(
        "graph", f"{_TRAIN_TIME} on train_mean_wide; <=2% of train_lstm_tight",
        ("sample_s", "s", "lower"),
        ("input_nodes", "count", "lower"),
    )
    + _layer(
        "core",
        "schedule_s/gc_s: train_store_tight; fastblock_s: train_mean_wide; "
        "trainer_init_s: setup_s everywhere",
        ("schedule_s", "s", "lower"),
        ("fastblock_s", "s", "lower"),
        ("fastblock_worker_s", "s", "lower"),
        ("microbatch_gen_s", "s", "lower"),
        ("microbatch_gen_worker_s", "s", "lower"),
        ("gc_s", "s", "lower"),
        ("microbatch_other_s", "s", "lower"),
        ("iteration_other_s", "s", "lower"),
        ("micro_batches", "count", "lower"),
        ("trainer_init_s", "s", "lower"),
    )
    + _layer(
        "gnn", f"{_TRAIN_TIME} on train_lstm_tight",
        ("aggregate_s", "s", "lower"),
        ("forward_other_s", "s", "lower"),
    )
    + _layer(
        "kernels",
        f"{_TRAIN_TIME} on train_store_tight (fused) and train_mean_wide",
        ("forward_s", "s", "lower"),
        ("calls", "count", "lower"),
    )
    + _layer(
        "nn", f"{_TRAIN_TIME} on train_mean_wide",
        ("linear_s", "s", "lower"),
        ("optimizer_step_s", "s", "lower"),
    )
    + _layer(
        "tensor",
        f"{_TRAIN_TIME} on train_lstm_tight and train_mean_wide",
        ("backward_s", "s", "lower"),
        ("loss_s", "s", "lower"),
    )
    + _layer(
        "store",
        f"{_TRAIN_TIME} on train_store_tight only, by at most what "
        "pipeline.run_other_s shows is not hidden; build_s: setup_s",
        ("gather_s", "s", "lower"),
        ("gather_worker_s", "s", "lower"),
        ("prefetch_worker_s", "s", "lower"),
        ("rows_served", "count", "lower"),
        ("hot_hit_ratio", "ratio", "higher"),
        ("bytes_read", "bytes", "lower"),
        ("peak_resident_frac", "ratio", "lower"),
        ("build_s", "s", "lower"),
    )
    + _layer(
        "pipeline", f"{_TRAIN_TIME} on train_store_tight",
        ("run_other_s", "s", "lower"),
        ("worker_busy_s", "s", "lower"),
    )
    + _layer(
        "device", "failed; headroom at equal core.micro_batches",
        ("peak_frac", "ratio", "lower"),
        ("oom_retries", "count", "lower"),
    )
    + _layer(
        "obs", "explains moves of core.micro_batches (paper Table III)",
        ("estimator_abs_rel_error", "ratio", "lower"),
    )
    + _layer(
        "training", "work moved out of timed epochs shows in first_epoch_s",
        ("first_epoch_s", "s", "lower"),
        ("epoch_other_s", "s", "lower"),
    )
    + _layer("datasets", "setup_s", ("load_s", "s", "lower"))
    + _layer(
        "serve",
        "sample_s/forward_s/predict_other_s: throughput_per_s and "
        "latency_tail_ms; queue_wait_s/cache_s/mean_batch_size: "
        "latency_p50_ms (serve_live)",
        *[(f"open_{s}", u, b) for s, u, b in _SERVE_PHASE_ROWS],
        *[(f"closed_{s}", u, b) for s, u, b in _SERVE_PHASE_ROWS],
        ("open_achieved_rps", "1/s", "higher"),
        ("open_latency_p99_ms", "ms", "lower"),
        ("open_lateness_p99_ms", "ms", "lower"),
        ("closed_latency_p50_ms", "ms", "lower"),
    )
    + _layer(
        "trace", "the instrument itself",
        ("overhead_frac", "ratio", "lower"),
        ("coverage_frac", "ratio", "higher"),
        ("probes_missing", "count", "lower"),
    )
)

#: Counts that depend only on the seed and ``--seconds``, not on timing:
#: ``verify_repeat.py`` requires them to repeat exactly.
EXACT_COUNTS = (
    "graph.input_nodes",
    "core.micro_batches",
    "kernels.calls",
    "device.oom_retries",
    "trace.probes_missing",
)

UNITS = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {k: m[k] for k in ("name", "unit", "better", "bound")}
            for m in END_TO_END
        ],
        "per_layer": [
            {k: m[k] for k in ("name", "unit", "better")} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
