"""Command-line interface.

Subcommands::

    python -m repro datasets                    # Table II-style stats
    python -m repro train --dataset ogbn_arxiv  # Buffalo training
    python -m repro train --trace t.jsonl --metrics m.json  # + telemetry
    python -m repro train --data-store d.store  # out-of-core training
    python -m repro schedule --dataset reddit   # inspect a plan
    python -m repro serve --dataset ogbn_arxiv  # live serving smoke
    python -m repro store build cora.npz cora.store  # convert to a store
    python -m repro store info cora.store       # inspect a store
    python -m repro trace summarize t.jsonl     # per-phase breakdown
    python -m repro trace timeline mem.jsonl    # four-tier memory view
    python -m repro trace critical-path t.jsonl --folded out.folded
    python -m repro experiment fig10            # regenerate a figure
    python -m repro experiment --list
    python -m repro bench kernels --check       # kernel perf gate
    python -m repro ledger show benchmarks/ledger/kernels.jsonl
    python -m repro ledger compare A.jsonl@0 A.jsonl  # regression diff
    python -m repro ledger check R.jsonl --baseline B.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import sys
from typing import Sequence

EXPERIMENTS = (
    "fig01",
    "tab02",
    "fig02",
    "fig04",
    "fig05",
    "fig06",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "tab03",
    "tab04",
    "sec_g",
    "ablation_grouping",
    "ablation_estimator",
    "ablation_feature_cache",
    "store_io",
    "kernels",
    "split_scaling",
    "serve_load",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Buffalo reproduction: memory-efficient bucketized "
        "GNN training (HPCA 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="show dataset statistics")
    datasets.add_argument("--scale", type=float, default=0.25)
    datasets.add_argument("--seed", type=int, default=0)

    train = sub.add_parser("train", help="train a GNN with Buffalo")
    train.add_argument("--dataset", default="ogbn_arxiv")
    train.add_argument(
        "--data-store",
        default=None,
        metavar="PATH",
        help="train from an on-disk dataset store (built with "
        "`repro store build`) instead of generating --dataset in memory",
    )
    train.add_argument("--scale", type=float, default=0.1)
    train.add_argument(
        "--aggregator",
        default="mean",
        choices=["mean", "sum", "max", "pool", "lstm", "attention", "gcn"],
    )
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--heads", type=int, default=1)
    train.add_argument("--dropout", type=float, default=0.0)
    train.add_argument("--budget-gb", type=float, default=24.0)
    train.add_argument("--epochs", type=int, default=2)
    train.add_argument("--batch-size", type=int, default=256)
    train.add_argument(
        "--fanouts", default="10,25", help="comma list, output layer first"
    )
    train.add_argument("--checkpoint", default=None)
    train.add_argument("--eval", action="store_true", dest="do_eval")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--devices",
        type=int,
        default=1,
        help="simulated GPU count N of the training fleet (every other "
        "train flag composes with N > 1; gradients stay bit-identical "
        "to a single device)",
    )
    train.add_argument(
        "--parallel",
        default="split",
        choices=["data", "split"],
        help="placement policy of a --devices > 1 fleet: 'data' keeps "
        "features on the host and runs group i on device i mod N; "
        "'split' partitions the feature matrix and places bucket groups "
        "by load (shard reads + halo exchange over the interconnect; "
        "see docs/distributed.md)",
    )
    train.add_argument(
        "--kernel-backend",
        default="reference",
        choices=["reference", "fused"],
        help="bucketed-aggregation kernels: 'reference' keeps the dense "
        "(n, degree, feat) gather semantics bit-for-bit; 'fused' reads "
        "the CSR block directly (see docs/kernels.md)",
    )
    train.add_argument(
        "--hot-cache-mb",
        type=float,
        default=None,
        help="hot-node cache budget (MiB) of a --data-store feature "
        "store (default 16 MiB)",
    )
    train.add_argument(
        "--host-budget-mb",
        type=float,
        default=None,
        help="soft ceiling (MiB) on host-resident feature bytes of a "
        "--data-store run; the hot cache shrinks to fit",
    )
    _add_obs_flags(train)
    train.add_argument(
        "--ledger",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="append a run-ledger record (phases, memory peaks, "
        "metrics) to PATH (default: benchmarks/ledger/train.jsonl)",
    )
    train.add_argument(
        "--timeline",
        default=None,
        metavar="PATH",
        help="record a per-micro-batch four-tier memory timeline "
        "(device/store/cache/workspace) as JSONL to PATH",
    )

    schedule = sub.add_parser(
        "schedule", help="show Buffalo's plan for one batch"
    )
    schedule.add_argument("--dataset", default="ogbn_arxiv")
    schedule.add_argument("--scale", type=float, default=0.1)
    schedule.add_argument("--budget-gb", type=float, default=24.0)
    schedule.add_argument("--aggregator", default="lstm")
    schedule.add_argument("--hidden", type=int, default=64)
    schedule.add_argument("--n-seeds", type=int, default=400)
    schedule.add_argument("--fanouts", default="10,25")
    schedule.add_argument("--seed", type=int, default=0)
    _add_obs_flags(schedule)

    serve = sub.add_parser(
        "serve",
        help="run the online serving tier against a generated request "
        "trace (docs/serving.md)",
    )
    serve.add_argument("--dataset", default="ogbn_arxiv")
    serve.add_argument("--scale", type=float, default=0.05)
    serve.add_argument("--aggregator", default="mean")
    serve.add_argument("--hidden", type=int, default=32)
    serve.add_argument(
        "--fanouts", default="10,25", help="comma list, output layer first"
    )
    serve.add_argument(
        "--requests",
        type=int,
        default=100,
        help="number of seeded trace requests to replay",
    )
    serve.add_argument(
        "--rate-hz",
        type=float,
        default=1000.0,
        help="open-loop arrival rate of the generated trace",
    )
    serve.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        help="popularity skew exponent (higher = hotter head)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="coalescing bound: dispatch a degree-key group at this size",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="coalescing bound: dispatch a non-full group after this wait",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=256,
        help="admission bound; arrivals beyond it are rejected "
        "with queue_full",
    )
    serve.add_argument(
        "--cache-mb",
        type=float,
        default=8.0,
        help="embedding-cache byte budget in MiB (0 disables)",
    )
    serve.add_argument(
        "--kernel-backend",
        default="reference",
        choices=["reference", "fused"],
        help="bucketed-aggregation kernels for the serving forwards "
        "(see docs/kernels.md)",
    )
    serve.add_argument("--seed", type=int, default=0)
    _add_obs_flags(serve)

    store = sub.add_parser(
        "store", help="build or inspect an on-disk dataset store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    build = store_sub.add_parser(
        "build",
        help="convert a saved .npz dataset (or a catalog name) into "
        "the chunked store layout",
    )
    build.add_argument(
        "source", help="path to a saved .npz dataset, or a dataset name"
    )
    build.add_argument("dest", help="store directory to create")
    build.add_argument(
        "--shard-rows",
        type=int,
        default=None,
        help="feature rows per shard file (default 4096)",
    )
    build.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale when source is a catalog name",
    )
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--force",
        action="store_true",
        help="replace an existing store at dest",
    )
    info = store_sub.add_parser("info", help="summarize a store")
    info.add_argument("path", help="store directory")
    info.add_argument(
        "--verify",
        action="store_true",
        help="check every file's size and CRC32 against the manifest",
    )
    info.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable JSON",
    )

    trace = sub.add_parser(
        "trace", help="inspect a JSONL trace produced by --trace"
    )
    trace.add_argument(
        "action",
        choices=["summarize", "timeline", "critical-path"],
        help="summarize: per-phase breakdown; timeline: render a "
        "--timeline memory file; critical-path: wall-time attribution "
        "plus folded-stacks export",
    )
    trace.add_argument("path", help="JSONL trace (or timeline) file")
    trace.add_argument(
        "--csv",
        action="store_true",
        help="emit CSV instead of the ASCII table (timeline)",
    )
    trace.add_argument(
        "--folded",
        default=None,
        metavar="PATH",
        help="write folded stacks for flamegraph tools (critical-path)",
    )
    trace.add_argument(
        "--main-thread",
        default=None,
        metavar="NAME",
        help="critical-path main thread override (default: thread of "
        "the longest root span)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", nargs="?", default=None)
    experiment.add_argument("--list", action="store_true", dest="list_all")
    experiment.add_argument(
        "--ledger",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="append the experiment's numeric results as a ledger "
        "record (default: benchmarks/ledger/<name>.jsonl)",
    )

    bench = sub.add_parser(
        "bench", help="machine-readable micro-benchmarks (BENCH_*.json)"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_kernels = bench_sub.add_parser(
        "kernels",
        help="fused vs reference kernel backends on the cut-off bucket",
    )
    bench_kernels.add_argument("--rows", type=int, default=4096)
    bench_kernels.add_argument("--degree", type=int, default=24)
    bench_kernels.add_argument("--feat", type=int, default=64)
    bench_kernels.add_argument("--repeats", type=int, default=3)
    bench_kernels.add_argument("--seed", type=int, default=0)
    bench_kernels.add_argument(
        "--out",
        default="BENCH_kernels.json",
        metavar="PATH",
        help="where to write the JSON result (default: BENCH_kernels.json)",
    )
    bench_kernels.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when fused is >10%% slower than reference on "
        "sum/mean (best-of---repeats; the CI perf-smoke gate)",
    )
    bench_kernels.add_argument(
        "--ledger",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="append the result as a ledger record "
        "(default: benchmarks/ledger/kernels.jsonl)",
    )
    bench_kernels.add_argument(
        "--baseline",
        default=None,
        metavar="RECORD",
        help="with --check, also compare against a baseline ledger "
        "record (PATH or PATH@INDEX) and fail on cross-run regressions",
    )
    bench_experiment = bench_sub.add_parser(
        "experiment",
        help="run one paper experiment as a benchmark (alias of "
        "`repro experiment NAME` with ledger support)",
    )
    bench_experiment.add_argument(
        "name", help=f"experiment name, one of: {', '.join(EXPERIMENTS)}"
    )
    bench_experiment.add_argument(
        "--ledger",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="append the experiment's numeric results as a ledger "
        "record (default: benchmarks/ledger/<name>.jsonl)",
    )

    ledger = sub.add_parser(
        "ledger", help="cross-run performance ledger (docs/observatory.md)"
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ledger_show = ledger_sub.add_parser(
        "show", help="print one ledger record"
    )
    ledger_show.add_argument(
        "record", help="ledger PATH or PATH@INDEX (default: last record)"
    )
    ledger_compare = ledger_sub.add_parser(
        "compare",
        help="per-metric delta table of two records; exit 1 on "
        "regressions beyond thresholds",
    )
    ledger_compare.add_argument("base", help="baseline PATH[@INDEX]")
    ledger_compare.add_argument("new", help="candidate PATH[@INDEX]")
    _add_threshold_flags(ledger_compare)
    ledger_check = ledger_sub.add_parser(
        "check",
        help="gate a record against its recorded floors and, with "
        "--baseline, against another record",
    )
    ledger_check.add_argument("record", help="candidate PATH[@INDEX]")
    ledger_check.add_argument(
        "--baseline",
        default=None,
        metavar="RECORD",
        help="baseline PATH[@INDEX] for a cross-run comparison",
    )
    _add_threshold_flags(ledger_check)

    lint = sub.add_parser(
        "lint",
        help="run the project-aware linter (see docs/analysis.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to check (default: configured paths)",
    )
    lint.add_argument(
        "--root",
        default=".",
        help="repository root holding pyproject.toml (default: cwd)",
    )
    lint.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif"],
        dest="output_format",
        help="report format",
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="A,B",
        help="comma list of rule names to run (default: all)",
    )
    lint.add_argument(
        "--concurrency",
        action="store_true",
        help="run only the whole-program concurrency rules "
        "(lock-order, blocking-under-lock, thread-escape, "
        "lock-contract, lock-discipline)",
    )
    lint.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        dest="sarif_path",
        help="additionally write a SARIF 2.1.0 report to PATH",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file of grandfathered findings "
        "(default: lint-baseline.json under --root)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, including grandfathered ones",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record current findings as the new baseline and exit",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="re-analyze every file, ignoring the result cache",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="describe the registered rules and exit",
    )
    lint.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="include suppression/stale-baseline details in text output",
    )

    return parser


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write span events as JSONL to PATH",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write a metrics snapshot as JSON to PATH",
    )


def _add_threshold_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--wall-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="phase wall-time regression tolerance (default 0.25)",
    )
    parser.add_argument(
        "--peak-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="peak-bytes regression tolerance (default 0.05)",
    )
    parser.add_argument(
        "--metric-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="other-metric regression tolerance (default 0.10)",
    )


def _thresholds_from_args(args):
    from repro.obs.observatory.ledger import Thresholds

    defaults = Thresholds()
    return Thresholds(
        wall_tol=(
            defaults.wall_tol if args.wall_tol is None else args.wall_tol
        ),
        peak_tol=(
            defaults.peak_tol if args.peak_tol is None else args.peak_tol
        ),
        metric_tol=(
            defaults.metric_tol
            if args.metric_tol is None
            else args.metric_tol
        ),
    )


def _resolve_ledger_path(value: str | None, default_name: str) -> str | None:
    """``--ledger`` flag value -> concrete path (None when absent)."""
    if value is None:
        return None
    if value == "auto":
        import os

        from repro.obs.observatory.ledger import DEFAULT_LEDGER_DIR

        return os.path.join(DEFAULT_LEDGER_DIR, f"{default_name}.jsonl")
    return value


@contextlib.contextmanager
def _observability(args, extra_payload: dict | None = None):
    """Attach trace/metrics outputs for one command invocation.

    The metrics registry is reset on entry (when any output is
    requested) so the written snapshot covers exactly this run; the
    sink is detached and the files are finalized on exit, even when the
    command fails.  ``extra_payload`` entries holding callables are
    evaluated at exit (e.g. estimator-accuracy telemetry that only
    exists once training ran).
    """
    import json

    from repro.obs import JsonlFileSink, get_metrics, get_tracer

    tracer = get_tracer()
    sink = None
    if args.trace or args.metrics:
        get_metrics().reset()
    if args.trace:
        try:
            sink = tracer.add_sink(JsonlFileSink(args.trace))
        except OSError as exc:
            raise SystemExit(f"cannot write trace to {args.trace}: {exc}")
    try:
        yield
    finally:
        if sink is not None:
            tracer.remove_sink(sink)
            sink.close()
        if args.metrics:
            payload = {"metrics": get_metrics().snapshot()}
            for key, value in (extra_payload or {}).items():
                payload[key] = value() if callable(value) else value
            try:
                with open(args.metrics, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise SystemExit(
                    f"cannot write metrics to {args.metrics}: {exc}"
                )


def _require_positive(value, flag: str) -> None:
    """Exit with a one-line message when a budget flag is non-positive."""
    if value is not None and value <= 0:
        raise SystemExit(f"{flag} must be positive, got {value}")


def _parse_fanouts(text: str) -> list[int]:
    try:
        fanouts = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(f"invalid --fanouts {text!r}; expected e.g. 10,25")
    if not fanouts:
        raise SystemExit("--fanouts must contain at least one value")
    return fanouts


def _cmd_datasets(args) -> int:
    from repro.bench.reporting import format_table
    from repro.datasets import DATASET_NAMES, load

    rows = []
    for name in DATASET_NAMES:
        dataset = load(name, scale=args.scale, seed=args.seed)
        stats = dataset.stats(clustering_sample=500)
        rows.append(
            [
                name,
                stats["n_nodes"],
                stats["n_edges"],
                stats["avg_degree"],
                stats["avg_clustering"],
                "yes" if stats["power_law"] else "no",
            ]
        )
    print(
        format_table(
            ["dataset", "nodes", "edges", "avg deg", "avg coef", "power law"],
            rows,
            title=f"generated datasets at scale={args.scale}",
        )
    )
    return 0


def _train_ledger_record(args, trainer, recorder, fanouts):
    """Assemble the run-ledger record of one ``repro train`` invocation.

    Lives here (not in ``repro.obs``) because only the CLI sees the
    whole wiring: the trainer facade, its tiered memory sources, and
    the metrics registry of exactly this run.
    """
    from repro.obs import get_metrics
    from repro.obs.observatory.ledger import LedgerRecord

    config = {
        "command": "train",
        "dataset": args.dataset,
        "data_store": bool(args.data_store),
        "scale": args.scale,
        "aggregator": args.aggregator,
        "hidden": args.hidden,
        "layers": args.layers,
        "fanouts": fanouts,
        "budget_gb": args.budget_gb,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "seed": args.seed,
        "kernel_backend": args.kernel_backend,
        "devices": args.devices,
        "parallel": trainer.parallel,
    }
    peaks: dict[str, float] = {
        "device": float(recorder.device_peak_bytes)
    }
    if trainer.store is not None:
        peaks["store"] = float(trainer.store.peak_resident_bytes)
    workspace = getattr(trainer.trainers[0].kernel, "workspace", None)
    if workspace is not None:
        peaks["workspace"] = float(workspace.peak_bytes)

    metrics: dict[str, float] = {}
    for name, payload in get_metrics().snapshot().items():
        if payload["type"] in ("counter", "gauge"):
            metrics[name] = float(payload["value"])
        elif payload["type"] == "histogram" and payload["count"]:
            metrics[f"{name}.mean"] = float(payload["mean"])
            if payload.get("p95") is not None:
                metrics[f"{name}.p95"] = float(payload["p95"])
    if trainer.telemetry.samples:
        metrics["estimator.mean_abs_rel_error"] = float(
            trainer.telemetry.mean_abs_rel_error()
        )
    if trainer.store is not None:
        metrics["store.hot_hit_rate"] = float(trainer.store.hot_hit_rate)
        metrics["store.disk_bytes_read"] = float(trainer.store.bytes_read)
    return LedgerRecord(
        name="train",
        config=config,
        phases=recorder.phases(),
        peaks=peaks,
        metrics=metrics,
    )


def _cmd_train(args) -> int:
    from repro.bench.workloads import budget_bytes
    from repro.core import BuffaloTrainer
    from repro.datasets import load
    from repro.device import DeviceFleet, SimulatedGPU
    from repro.errors import ReproError
    from repro.gnn.footprint import ModelSpec
    from repro.training import TrainingLoop

    fanouts = _parse_fanouts(args.fanouts)
    if len(fanouts) != args.layers:
        raise SystemExit(
            f"--fanouts needs {args.layers} values for --layers {args.layers}"
        )
    _require_positive(args.budget_gb, "--budget-gb (memory budget)")
    _require_positive(args.hot_cache_mb, "--hot-cache-mb")
    _require_positive(args.host_budget_mb, "--host-budget-mb")
    _require_positive(args.devices, "--devices")
    if args.data_store is not None:
        from pathlib import Path

        from repro.datasets import open_dataset
        from repro.store import is_store_path

        if not Path(args.data_store).exists():
            raise SystemExit(f"no such dataset store: {args.data_store}")
        if not is_store_path(args.data_store):
            raise SystemExit(
                f"{args.data_store} is not a dataset store "
                f"(build one with `repro store build`)"
            )
        dataset = open_dataset(
            args.data_store,
            hot_cache_bytes=(
                int(args.hot_cache_mb * 2**20)
                if args.hot_cache_mb is not None
                else None
            ),
            host_budget_bytes=(
                int(args.host_budget_mb * 2**20)
                if args.host_budget_mb is not None
                else None
            ),
        )
    else:
        dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    spec = ModelSpec(
        dataset.feat_dim,
        args.hidden,
        dataset.n_classes,
        args.layers,
        args.aggregator,
        heads=args.heads,
        dropout=args.dropout,
    )
    capacity = budget_bytes(dataset, args.budget_gb)
    # One device is the N = 1 fleet under host->device pricing;
    # --parallel picks the placement policy of a larger fleet.
    multi = args.devices > 1
    try:
        trainer = BuffaloTrainer(
            dataset,
            spec,
            DeviceFleet(args.devices, capacity_bytes=capacity)
            if multi
            else SimulatedGPU(capacity_bytes=capacity),
            fanouts=fanouts,
            seed=args.seed,
            parallel=args.parallel if multi else "data",
            kernel_backend=args.kernel_backend,
        )
    except ReproError as exc:
        raise SystemExit(f"error: {exc}")
    val_nodes = None
    if args.do_eval:
        val_nodes = dataset.val_nodes[:500]
    loop = TrainingLoop(
        trainer=trainer,
        dataset=dataset,
        batch_size=args.batch_size,
        val_nodes=val_nodes,
        checkpoint_path=args.checkpoint,
        seed=args.seed,
    )
    source = (
        f"{dataset.name} (store {args.data_store})"
        if args.data_store is not None
        else args.dataset
    )
    fleet_note = (
        f" across {args.devices} devices ({args.parallel}-parallel)"
        if args.devices > 1
        else ""
    )
    print(
        f"training {args.aggregator}-GraphSAGE"
        f"{' (GAT)' if args.aggregator == 'attention' else ''} on "
        f"{source} under {args.budget_gb:.0f} GB-equivalent "
        f"({trainer.device.capacity / 2**20:.0f} MiB)"
        f"{fleet_note}"
    )
    ledger_path = _resolve_ledger_path(args.ledger, "train")
    recorder = None
    recorder_sink = None
    if ledger_path is not None:
        from repro.obs import get_metrics, get_tracer
        from repro.obs.observatory.ledger import RunRecorder
        from repro.obs.trace import CallbackSink

        get_metrics().reset()
        recorder = RunRecorder()
        recorder_sink = get_tracer().add_sink(
            CallbackSink(recorder.consume)
        )
    if args.timeline is not None:
        trainer.attach_timeline()
    extra_payload = {"estimator_accuracy": trainer.telemetry.to_dict}
    try:
        with _observability(args, extra_payload):
            for result in loop.run(args.epochs):
                val = (
                    f"  val_acc={result.val_accuracy:.3f}"
                    if result.val_accuracy is not None
                    else ""
                )
                print(
                    f"epoch {result.epoch}: loss={result.mean_loss:.4f}"
                    f"  batches={result.n_batches}"
                    f"  micro-batches={result.total_micro_batches}"
                    f"  wall={result.wall_s:.2f}s{val}"
                )
    finally:
        if recorder_sink is not None:
            from repro.obs import get_tracer

            get_tracer().remove_sink(recorder_sink)
    if args.timeline is not None and trainer.timeline is not None:
        try:
            trainer.timeline.to_jsonl(args.timeline)
        except OSError as exc:
            raise SystemExit(
                f"cannot write timeline to {args.timeline}: {exc}"
            )
        print(
            f"timeline written to {args.timeline} "
            f"({len(trainer.timeline.samples)} samples)"
        )
    if recorder is not None:
        from repro.obs.observatory.ledger import append_record

        record = _train_ledger_record(args, trainer, recorder, fanouts)
        try:
            append_record(ledger_path, record)
        except OSError as exc:
            raise SystemExit(
                f"cannot write ledger to {ledger_path}: {exc}"
            )
        print(f"ledger record appended to {ledger_path}")
    if args.devices > 1:
        fleet = trainer.fleet
        print(
            f"fleet: halo {fleet.halo_bytes / 2**20:.2f} MiB "
            f"exchanged, all-reduce "
            f"{fleet.allreduce_bytes / 2**20:.2f} MiB, "
            f"sim {fleet.sim_time_s * 1e3:.2f} ms"
        )
    store = trainer.store
    if store is not None:
        print(
            f"feature store: hot-cache hit rate {store.hot_hit_rate:.1%}"
            f"  disk {store.bytes_read / 2**20:.2f} MiB"
            f"  peak resident {store.peak_resident_bytes / 2**20:.2f} MiB"
            f" (full matrix {store.nbytes / 2**20:.2f} MiB)"
        )
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics:
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_schedule(args) -> int:
    from repro.bench.experiments.common import prepare_batch
    from repro.bench.workloads import budget_bytes
    from repro.core.scheduler import BuffaloScheduler
    from repro.datasets import load
    from repro.gnn.footprint import ModelSpec

    _require_positive(args.budget_gb, "--budget-gb (memory budget)")
    fanouts = _parse_fanouts(args.fanouts)
    dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    prepared = prepare_batch(
        dataset, fanouts, n_seeds=args.n_seeds, seed=args.seed
    )
    spec = ModelSpec(
        dataset.feat_dim,
        args.hidden,
        dataset.n_classes,
        len(fanouts),
        args.aggregator,
    )
    budget = budget_bytes(dataset, args.budget_gb)
    clustering = dataset.stats(clustering_sample=500)["avg_clustering"]
    scheduler = BuffaloScheduler(
        spec,
        0.9 * budget,
        cutoff=fanouts[0],
        clustering_coefficient=clustering,
    )
    with _observability(args):
        plan = scheduler.schedule(prepared.batch, prepared.blocks)
    print(
        f"{args.dataset}: {prepared.batch.n_seeds} seeds -> K={plan.k} "
        f"bucket groups (budget {budget / 2**20:.0f} MiB, "
        f"split={'yes' if plan.split_applied else 'no'})"
    )
    for i, group in enumerate(plan.groups):
        print(f"  group {i}: {group}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics:
        print(f"metrics written to {args.metrics}")
    return 0


def _cmd_serve(args) -> int:
    import numpy as np

    from repro.bench.workloads import standard_spec
    from repro.core.api import build_model
    from repro.datasets import load
    from repro.serve import (
        BatchPolicy,
        EmbeddingCache,
        LoadSpec,
        ServeEngine,
        ServeServer,
        generate_trace,
    )

    _require_positive(args.requests, "--requests")
    _require_positive(args.rate_hz, "--rate-hz")
    _require_positive(args.max_batch, "--max-batch")
    _require_positive(args.queue_depth, "--queue-depth")
    if args.max_wait_ms < 0:
        raise SystemExit(
            f"--max-wait-ms must be >= 0, got {args.max_wait_ms}"
        )
    if args.cache_mb < 0:
        raise SystemExit(f"--cache-mb must be >= 0, got {args.cache_mb}")
    fanouts = _parse_fanouts(args.fanouts)
    dataset = load(args.dataset, scale=args.scale, seed=args.seed)
    spec = standard_spec(
        dataset,
        aggregator=args.aggregator,
        hidden=args.hidden,
        n_layers=len(fanouts),
    )
    model = build_model(spec, rng=args.seed)
    trace = generate_trace(
        LoadSpec(
            n_requests=args.requests,
            rate_hz=args.rate_hz,
            zipf_exponent=args.zipf,
            seed=args.seed,
        ),
        dataset.train_nodes,
    )
    policy = BatchPolicy(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue_depth=args.queue_depth,
    )
    with _observability(args):
        engine = ServeEngine(
            model,
            dataset.graph,
            dataset.features,
            fanouts,
            sampler_seed=args.seed,
            cache=EmbeddingCache(int(args.cache_mb * 2**20)),
            kernel_backend=args.kernel_backend,
        )
        server = ServeServer(engine, policy).start()
        pendings = [server.submit(req.node) for req in trace]
        server.stop(drain=True)
    latencies = []
    hits = 0
    rejects: dict[str, int] = {}
    for pending in pendings:
        if pending.rejected:
            reason = pending.reject_reason or "unknown"
            rejects[reason] = rejects.get(reason, 0) + 1
            continue
        response = pending.result(timeout=0.0)
        latencies.append(response.latency_s)
        hits += int(response.cache_hit)
    served = len(latencies)
    print(
        f"{args.dataset}: served {served}/{len(trace)} requests in "
        f"{server.batches} batches "
        f"(max_batch={policy.max_batch}, "
        f"max_wait={policy.max_wait_s * 1e3:.1f} ms, "
        f"queue_depth={policy.max_queue_depth})"
    )
    if served:
        arr = np.array(latencies)
        print(
            f"  latency p50 {np.quantile(arr, 0.50) * 1e3:.2f} ms  "
            f"p95 {np.quantile(arr, 0.95) * 1e3:.2f} ms  "
            f"p99 {np.quantile(arr, 0.99) * 1e3:.2f} ms  "
            f"cache hits {hits}"
        )
    for reason in sorted(rejects):
        print(f"  rejected ({reason}): {rejects[reason]}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if args.metrics:
        print(f"metrics written to {args.metrics}")
    return 0 if served + sum(rejects.values()) == len(trace) else 1


def _cmd_store(args) -> int:
    from pathlib import Path

    from repro.store import build_store, describe_store, store_info

    if args.store_command == "build":
        _require_positive(args.shard_rows, "--shard-rows")
        _require_positive(args.scale, "--scale")
        source = Path(args.source)
        if source.exists():
            from repro.datasets.io import load_dataset

            dataset = load_dataset(source)
        else:
            if source.suffix or "/" in args.source:
                raise SystemExit(f"no such dataset file: {args.source}")
            from repro.datasets import load

            dataset = load(args.source, scale=args.scale, seed=args.seed)
        kwargs = {"overwrite": args.force}
        if args.shard_rows is not None:
            kwargs["shard_rows"] = args.shard_rows
        manifest = build_store(dataset, args.dest, **kwargs)
        total = sum(int(f["bytes"]) for f in manifest.files.values())
        print(
            f"built store {args.dest}: {manifest.n_nodes:,} nodes, "
            f"{manifest.n_edges:,} edges, {manifest.n_shards} feature "
            f"shard(s), {total / 2**20:.2f} MiB"
        )
        return 0
    # store info
    if not Path(args.path).exists():
        raise SystemExit(f"no such dataset store: {args.path}")
    info = store_info(args.path, verify=args.verify)
    if args.as_json:
        from repro.store.builder import info_json

        print(info_json(info))
    else:
        print(describe_store(info))
    return 0


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    from repro.obs.trace import TraceReadError

    if not Path(args.path).is_file():
        raise SystemExit(f"no such trace file: {args.path}")

    if args.action == "timeline":
        from repro.obs.observatory.timeline import (
            TimelineError,
            load_timeline,
            render_timeline,
        )

        try:
            samples = load_timeline(args.path)
        except (TimelineError, TraceReadError) as exc:
            raise SystemExit(
                f"{args.path} is not a timeline file: {exc}"
            )
        if not samples:
            raise SystemExit(f"{args.path} contains no timeline samples")
        print(render_timeline(samples, csv=args.csv))
        return 0

    if args.action == "critical-path":
        from repro.obs.observatory.critical_path import (
            CriticalPathError,
            build_critical_path,
            render_critical_path,
            write_folded_stacks,
        )
        from repro.obs.trace import read_trace_events

        try:
            events, skipped = read_trace_events(args.path)
            report = build_critical_path(
                events, main_thread=args.main_thread
            )
        except (TraceReadError, CriticalPathError) as exc:
            raise SystemExit(f"cannot analyze {args.path}: {exc}")
        print(render_critical_path(report))
        if skipped is not None:
            print(
                f"note: skipped torn trailing line {skipped} "
                f"(partial write)"
            )
        if args.folded:
            try:
                n = write_folded_stacks(report, args.folded)
            except OSError as exc:
                raise SystemExit(
                    f"cannot write folded stacks to {args.folded}: {exc}"
                )
            print(f"folded stacks ({n} lines) written to {args.folded}")
        return 0

    from repro.obs.summarize import render_summary, summarize_file

    try:
        summary = summarize_file(args.path)
    except (json.JSONDecodeError, TraceReadError) as exc:
        raise SystemExit(f"{args.path} is not a JSONL trace: {exc}")
    print(render_summary(summary, title=f"trace summary: {args.path}"))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import all_rules, rule_names
    from repro.analysis.baseline import write_baseline
    from repro.analysis.framework import AnalysisError
    from repro.analysis.reporters import (
        render_json,
        render_sarif,
        render_text,
    )
    from repro.analysis.rules.concurrency import CONCURRENCY_RULES
    from repro.analysis.runner import run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}: {rule.description}")
            print(f"    scopes: {', '.join(rule.default_scopes)}")
            print(f"    invariant: {rule.invariant}")
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = sorted(set(rules) - set(rule_names()))
        if unknown:
            raise SystemExit(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"available: {', '.join(rule_names())}"
            )
    if args.concurrency:
        concurrency = list(CONCURRENCY_RULES) + ["lock-discipline"]
        if rules is None:
            rules = concurrency
        else:
            rules = [r for r in rules if r in concurrency] or concurrency
    try:
        result = run_lint(
            args.root,
            paths=args.paths or None,
            rules=rules,
            baseline_path=args.baseline,
            use_baseline=not (args.no_baseline or args.write_baseline),
            use_cache=not args.no_cache,
        )
    except AnalysisError as exc:
        raise SystemExit(f"error: {exc}")
    if args.write_baseline:
        from pathlib import Path

        baseline_path = Path(args.root) / (
            args.baseline or result.config.baseline
        )
        try:
            count = write_baseline(
                baseline_path, result.findings, result.fingerprints
            )
        except AnalysisError as exc:
            raise SystemExit(f"error: {exc}")
        print(f"wrote {count} finding(s) to {baseline_path}")
        return 0
    if args.sarif_path:
        from pathlib import Path

        sarif_path = Path(args.sarif_path)
        sarif_path.write_text(render_sarif(result), encoding="utf-8")
        print(f"SARIF report written to {sarif_path}")
    if args.output_format == "json":
        print(render_json(result))
    elif args.output_format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _run_one_experiment(name: str, *, ledger: str | None = None) -> bool:
    module = importlib.import_module(f"repro.bench.experiments.{name}")
    output = module.run()
    print(output.table)
    print()
    for check, ok in output.shape_checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {check}")
    print()
    if ledger is not None:
        from repro.bench.harness import ledger_record_from_output
        from repro.obs.observatory.ledger import append_record

        ledger_path = _resolve_ledger_path(ledger, output.name)
        record = ledger_record_from_output(output)
        try:
            append_record(ledger_path, record)
        except OSError as exc:
            raise SystemExit(
                f"cannot write ledger to {ledger_path}: {exc}"
            )
        print(f"ledger record appended to {ledger_path}")
    return all(output.shape_checks.values())


def _cmd_experiment(args) -> int:
    if args.list_all or args.name is None:
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("  all (runs every experiment)")
        return 0
    if args.name == "all":
        failed = [
            name for name in EXPERIMENTS if not _run_one_experiment(name)
        ]
        if failed:
            print(f"experiments with failed shape checks: {failed}")
            return 1
        print(f"all {len(EXPERIMENTS)} experiments passed")
        return 0
    if args.name not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {args.name!r}; "
            f"see `repro experiment --list`"
        )
    return 0 if _run_one_experiment(args.name, ledger=args.ledger) else 1


def _cmd_bench(args) -> int:
    if args.bench_command == "experiment":
        if args.name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {args.name!r}; "
                f"see `repro experiment --list`"
            )
        return 0 if _run_one_experiment(args.name, ledger=args.ledger) else 1
    from repro.bench.kernels import (
        ledger_record_from_kernel_result,
        run_kernel_bench,
        write_bench_json,
    )
    from repro.obs.observatory.ledger import (
        LedgerError,
        append_record,
        check_floors,
        compare_records,
        render_comparison,
        resolve_record_spec,
    )

    _require_positive(args.rows, "--rows")
    _require_positive(args.degree, "--degree")
    _require_positive(args.feat, "--feat")
    _require_positive(args.repeats, "--repeats")
    result = run_kernel_bench(
        n_rows=args.rows,
        degree=args.degree,
        feat_dim=args.feat,
        repeats=args.repeats,
        seed=args.seed,
    )
    path = write_bench_json(result, args.out)
    for op, per_op in result["ops"].items():
        print(
            f"{op}: reference {per_op['reference']['wall_s'] * 1e3:.2f} ms"
            f"  fused {per_op['fused']['wall_s'] * 1e3:.2f} ms"
            f"  speedup {per_op['speedup']:.2f}x"
            f"  scratch ratio {per_op['scratch_ratio']:.2f}"
        )
    for bucket_name, bucket in result["buckets"].items():
        for op, per_op in bucket["ops"].items():
            print(
                f"{bucket_name}.{op}: speedup {per_op['speedup']:.2f}x"
                f"  scratch ratio {per_op['scratch_ratio']:.2f}"
            )
    print(f"results written to {path}")
    # The kernels gate runs on the ledger path: the result becomes a
    # LedgerRecord whose floors are the gate, and --baseline adds a
    # cross-run comparison.
    record = ledger_record_from_kernel_result(result)
    ledger_path = _resolve_ledger_path(args.ledger, "kernels")
    if ledger_path is not None:
        try:
            append_record(ledger_path, record)
        except OSError as exc:
            raise SystemExit(
                f"cannot write ledger to {ledger_path}: {exc}"
            )
        print(f"ledger record appended to {ledger_path}")
    if args.check:
        failures = check_floors(record)
        if args.baseline is not None:
            try:
                baseline = resolve_record_spec(args.baseline)
            except LedgerError as exc:
                raise SystemExit(f"error: {exc}")
            comparison = compare_records(baseline, record)
            print(render_comparison(comparison))
            failures.extend(
                f"vs baseline: {d.name} "
                f"{_fmt_delta(d)}"
                for d in comparison.regressions
            )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("perf gate passed (all ledger floors met)")
    return 0


def _fmt_delta(delta) -> str:
    rel = delta.rel_delta
    rel_text = "" if rel is None else f" ({100.0 * rel:+.1f}%)"
    return f"{delta.base:.6g} -> {delta.new:.6g}{rel_text}"


def _cmd_ledger(args) -> int:
    from repro.obs.observatory.ledger import (
        LedgerError,
        check_floors,
        compare_records,
        render_comparison,
        render_record,
        resolve_record_spec,
    )

    try:
        if args.ledger_command == "show":
            print(render_record(resolve_record_spec(args.record)))
            return 0
        if args.ledger_command == "compare":
            base = resolve_record_spec(args.base)
            new = resolve_record_spec(args.new)
            comparison = compare_records(
                base, new, _thresholds_from_args(args)
            )
            print(render_comparison(comparison))
            return 0 if comparison.ok else 1
        # check
        record = resolve_record_spec(args.record)
        failures = check_floors(record)
        if args.baseline is not None:
            baseline = resolve_record_spec(args.baseline)
            comparison = compare_records(
                baseline, record, _thresholds_from_args(args)
            )
            print(render_comparison(comparison))
            failures.extend(
                f"vs baseline: {d.name} {_fmt_delta(d)}"
                for d in comparison.regressions
            )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("ledger check passed")
        return 0
    except LedgerError as exc:
        raise SystemExit(f"error: {exc}")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "datasets": _cmd_datasets,
        "train": _cmd_train,
        "schedule": _cmd_schedule,
        "serve": _cmd_serve,
        "store": _cmd_store,
        "trace": _cmd_trace,
        "experiment": _cmd_experiment,
        "bench": _cmd_bench,
        "ledger": _cmd_ledger,
        "lint": _cmd_lint,
    }
    from repro.errors import DatasetError

    try:
        return handlers[args.command](args)
    except DatasetError as exc:
        # Bad inputs (unknown dataset, corrupt file, torn store) are
        # user errors: one line, no traceback.
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
