"""Set-up, measurement and correctness checks of the four workloads.

Everything here drives ``repro`` through the public API listed in the
README; optional constructor knobs go through :func:`call_with_knobs`
so that a later PR may delete one and still be measured.

Work is fixed by ``--seconds`` and the seed, not by a stopwatch: a run
of 15 s trains a fixed number of epochs / sends a fixed number of
requests sized to take about that long on the 2-core reference host.
That keeps every count reproducible and lets the traced and untraced
runs be compared epoch by epoch.
"""

from __future__ import annotations

import atexit
import dataclasses
import inspect
import resource
import shutil
import statistics
import tempfile
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probes
from repro import datasets
from repro.core import BuffaloTrainer
from repro.core.api import build_model
from repro.datasets.features import synthesize_features
from repro.device import SimulatedGPU
from repro.errors import ReproError
from repro.gnn.footprint import ModelSpec
from repro.training import TrainingLoop

MIB = 1 << 20
FANOUTS = [10, 25]
#: Store directories live inside the checkout (the driver forbids
#: writing elsewhere) and are removed when the process exits.
TMP_ROOT = Path(__file__).resolve().parent / ".tmp"
#: The manifest's ``run_seconds``; the per-workload sizes below are the
#: work done in a run of this length.
NOMINAL_SECONDS = 15.0


@dataclass(frozen=True)
class TrainConfig:
    dataset: str
    scale: float
    aggregator: str
    hidden: int
    batch_size: int
    capacity_mib: int
    timed_epochs: int  # at NOMINAL_SECONDS
    train_limit: int | None = None
    #: Re-synthesise features at this width and serve them out of core,
    #: with these shares of the matrix as hot cache and host budget.
    store_feat_dim: int | None = None
    hot_cache_frac: float = 1 / 16
    host_budget_frac: float = 1 / 4
    #: The tight budget must give K > 1 and the same loss as K = 1.
    check_invariant: bool = False
    knobs: dict = field(default_factory=dict)


TRAIN = {
    "train_mean_wide": TrainConfig(
        "ogbn_arxiv", 2.0, "mean", 256, 1024, 4096, timed_epochs=8
    ),
    "train_lstm_tight": TrainConfig(
        "ogbn_arxiv", 1.0, "lstm", 64, 1000, 248, timed_epochs=5,
        train_limit=1000, check_invariant=True,
    ),
    "train_store_tight": TrainConfig(
        "ogbn_products", 1.0, "mean", 32, 2048, 24, timed_epochs=6,
        store_feat_dim=512, check_invariant=True,
        knobs={
            "pipeline_depth": 2,
            "pipeline_mode": "threaded",
            "kernel_backend": "fused",
        },
    ),
}


@dataclass(frozen=True)
class ServeConfig:
    dataset: str = "ogbn_arxiv"
    scale: float = 1.0
    hidden: int = 64
    max_batch: int = 16
    max_wait_s: float = 0.002
    max_queue_depth: int = 256
    open_rate_hz: float = 1000.0
    open_zipf: float = 1.1
    open_cache_bytes: int = 8 * MIB
    open_requests: int = 14000  # at NOMINAL_SECONDS, warm-up included
    #: Requests at the head of the open phase that are served and
    #: checked but not timed: the cache starts empty, so for its first
    #: seconds the server is offered more misses than it can compute and
    #: the backlog, not the steady state, would set the tail.
    open_warmup_requests: int = 2000  # at NOMINAL_SECONDS
    closed_requests: int = 5000  # at NOMINAL_SECONDS
    closed_in_flight: int = 64


SERVE = {"serve_live": ServeConfig()}

#: ``--smoke``: every workload ~20x smaller, to test the harness and not
#: to measure.  At this size a batch touches most of the graph, so the
#: store's host budget is twice the matrix and its device budget is
#: shrunk to keep K > 1.
SMOKE = {
    "train_mean_wide": {"scale": 0.1, "timed_epochs": 2},
    "train_lstm_tight": {"scale": 0.05, "timed_epochs": 2},
    "train_store_tight": {
        "scale": 0.05, "timed_epochs": 2, "capacity_mib": 8,
        "host_budget_frac": 2.0,
    },
    "serve_live": {
        "scale": 0.05, "open_requests": 500, "open_warmup_requests": 100,
        "closed_requests": 300,
    },
}


def config(name: str, smoke: bool):
    base = TRAIN[name] if name in TRAIN else SERVE[name]
    return dataclasses.replace(base, **SMOKE[name]) if smoke else base


def scaled(count: int, seconds: float) -> int:
    """``count`` units of work at the nominal run length, rescaled."""
    return max(2, round(count * seconds / NOMINAL_SECONDS))


def call_with_knobs(fn, args: tuple, knobs: dict, dropped: list):
    """Call ``fn(*args, **knobs)`` without the knobs it no longer takes."""
    params = inspect.signature(fn).parameters
    open_ended = any(p.kind is p.VAR_KEYWORD for p in params.values())
    kept = {k: v for k, v in knobs.items() if open_ended or k in params}
    dropped.extend(sorted(set(knobs) - set(kept)))
    return fn(*args, **kept)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
@dataclass
class TrainSetup:
    dataset: object
    spec: ModelSpec
    trainer: BuffaloTrainer
    loop: TrainingLoop
    knobs_dropped: list
    timings: dict


def setup_train(cfg: TrainConfig, seed: int) -> TrainSetup:
    dropped: list = []
    timings = {"store.build_s": None}

    start = time.perf_counter()
    dataset = datasets.load(cfg.dataset, scale=cfg.scale, seed=seed)
    if cfg.train_limit is not None:
        dataset = dataclasses.replace(
            dataset, train_nodes=dataset.train_nodes[: cfg.train_limit]
        )
    if cfg.store_feat_dim is not None:
        dataset = dataclasses.replace(
            dataset,
            features=synthesize_features(
                dataset.labels, cfg.store_feat_dim, seed + 2
            ),
        )
    timings["datasets.load_s"] = time.perf_counter() - start

    if cfg.store_feat_dim is not None:
        from repro.store import build_store, open_store_dataset

        start = time.perf_counter()
        TMP_ROOT.mkdir(exist_ok=True)
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=TMP_ROOT))
        atexit.register(remove_store, store_dir)
        feature_bytes = dataset.features.nbytes
        call_with_knobs(
            build_store, (dataset, store_dir), {"shard_rows": 4096}, dropped
        )
        dataset = call_with_knobs(
            open_store_dataset,
            (store_dir,),
            {
                "hot_cache_bytes": int(feature_bytes * cfg.hot_cache_frac),
                "host_budget_bytes": int(
                    feature_bytes * cfg.host_budget_frac
                ),
            },
            dropped,
        )
        timings["store.build_s"] = time.perf_counter() - start

    start = time.perf_counter()
    spec = ModelSpec(
        dataset.feat_dim, cfg.hidden, dataset.n_classes, len(FANOUTS),
        cfg.aggregator,
    )
    trainer = call_with_knobs(
        BuffaloTrainer,
        (dataset, spec, SimulatedGPU(cfg.capacity_mib * MIB), FANOUTS),
        {"seed": seed, **cfg.knobs},
        dropped,
    )
    timings["core.trainer_init_s"] = time.perf_counter() - start
    loop = TrainingLoop(
        trainer, dataset, batch_size=cfg.batch_size, seed=seed
    )
    return TrainSetup(dataset, spec, trainer, loop, dropped, timings)


def remove_store(store_dir: Path) -> None:
    shutil.rmtree(store_dir, ignore_errors=True)
    if TMP_ROOT.exists() and not any(TMP_ROOT.iterdir()):
        TMP_ROOT.rmdir()


def store_counters(store) -> dict:
    return {
        "rows": store.hot_hits + store.staged_rows + store.disk_rows,
        "hot": store.hot_hits,
        "bytes": store.bytes_read,
    }


def invariant_check(cfg: TrainConfig, setup: TrainSetup, seed: int) -> dict:
    """The paper's claim: K > 1 micro-batches give the K = 1 loss."""
    seeds = setup.dataset.train_nodes[:256]
    losses, ks = [], []
    for capacity in (cfg.capacity_mib * MIB, None):  # None: a 24 GB card
        trainer = call_with_knobs(
            BuffaloTrainer,
            (setup.dataset, setup.spec, SimulatedGPU(capacity), FANOUTS),
            {"seed": seed, **cfg.knobs},
            [],
        )
        report = trainer.run_iteration(seeds)
        losses.append(report.result.loss)
        ks.append(report.n_micro_batches)
    ok = ks[0] > 1 and ks[1] == 1 and bool(
        np.isclose(losses[0], losses[1], rtol=1e-5, atol=0.0)
    )
    return check(
        "micro_batch_invariant", ok,
        f"K={ks[0]} loss {losses[0]!r} vs K={ks[1]} loss {losses[1]!r}",
    )


#: Span names whose main-thread self time is the metric ``<name>_s``,
#: and those whose time on other threads is ``<name>_worker_s``.
MAIN_SPANS = (
    "graph.sample", "core.schedule", "core.fastblock", "core.microbatch_gen",
    "core.gc", "core.microbatch_other", "core.iteration_other",
    "gnn.aggregate", "gnn.forward_other", "kernels.forward", "nn.linear",
    "nn.optimizer_step", "tensor.backward", "tensor.loss", "store.gather",
    "pipeline.run_other", "training.epoch_other",
)
WORKER_SPANS = (
    "core.fastblock", "core.microbatch_gen", "store.gather", "store.prefetch",
)


def train_layer_metrics(spans: dict, n_epochs: int) -> dict:
    """Per-traced-epoch layer metrics from reduced spans."""

    def per_epoch(name: str, kind: str, side: int):
        entry = spans.get(name)
        if entry is None or entry["calls"][side] == 0:
            return None
        return entry[kind][side] / n_epochs

    out = {f"{name}_s": per_epoch(name, "self", 0) for name in MAIN_SPANS}
    out.update({
        f"{name}_worker_s": per_epoch(name, "self", 1)
        for name in WORKER_SPANS
    })
    out["kernels.calls"] = per_epoch("kernels.forward", "calls", 0)
    return out


def run_train(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool, process_start: float) -> dict:
    cfg = config(name, smoke)
    setup = setup_train(cfg, seed)
    setup_s = time.perf_counter() - process_start
    trainer, loop = setup.trainer, setup.loop
    n_timed = scaled(cfg.timed_epochs, seconds)
    # A traced run times its first half unprobed, as the baseline the
    # tracing overhead is measured against in the same process.
    n_plain = n_timed // 2 if trace else n_timed
    tracer = probes.Tracer()

    walls: list[float] = []
    losses: list[float] = []
    micro_batches: list[int] = []
    attempted = 0
    last_metrics: dict = {}
    store = getattr(trainer, "store", None)
    store_delta = None

    def one_epoch(root) -> None:
        nonlocal attempted, last_metrics
        start = time.perf_counter()
        with root:
            result = loop.run(1)[-1]
        walls.append(time.perf_counter() - start)
        losses.append(result.mean_loss)
        micro_batches.append(result.total_micro_batches)
        attempted += result.n_batches
        last_metrics = result.metrics

    # An iteration that raises ends the run without a result: a crash
    # is a louder signal than a count.
    one_epoch(nullcontext())  # warm-up, reported on its own
    for _ in range(n_plain):
        one_epoch(nullcontext())
    if trace:
        before = store_counters(store) if store is not None else None
        with probes.installed(
            tracer, model=trainer.model, optimizer=trainer.optimizer
        ):
            for _ in range(n_timed - n_plain):
                one_epoch(tracer.span("training.epoch_other"))
        if store is not None:
            store_delta = {k: v - before[k]
                           for k, v in store_counters(store).items()}
    rss = peak_rss_mb()

    first_epoch_s, timed = walls[0], walls[1:]
    # Iterations re-planned after a device OOM count as failed.
    oom_retries = int(
        last_metrics.get("buffalo.oom_retries", {}).get("value", 0)
    )
    samples = trainer.telemetry.samples
    peak_frac = (
        max(s.actual_bytes for s in samples) / trainer.device.capacity
    )
    resident_frac = None
    if store is not None and store.host_budget_bytes:
        resident_frac = store.peak_resident_bytes / store.host_budget_bytes

    checks = [
        check(
            "loss_finite_and_falling",
            bool(np.all(np.isfinite(losses))) and losses[-1] < losses[0],
            f"warm-up {losses[0]!r}, last {losses[-1]!r}",
        ),
        check(
            "device_within_capacity",
            peak_frac <= 1.0 and oom_retries == 0,
            f"peak_frac {peak_frac!r}, oom_retries {oom_retries}",
        ),
    ]
    if resident_frac is not None:
        checks.append(check(
            "store_within_host_budget", resident_frac <= 1.0,
            f"peak_resident_frac {resident_frac!r}",
        ))
    if cfg.check_invariant:
        checks.append(invariant_check(cfg, setup, seed))

    result = {
        "attempted": attempted,
        "failed": oom_retries,
        "losses": losses,
        "micro_batches": micro_batches,
        "epoch_s": timed,
        "knobs_dropped": setup.knobs_dropped,
        "probes_missing": tracer.missing,
        "checks": checks,
    }
    if not trace:
        n_seeds = len(setup.dataset.train_nodes)
        result["metrics"] = {
            "latency_p50_ms": statistics.median(timed) * 1e3,
            "latency_tail_ms": float(np.percentile(timed, 75)) * 1e3,
            "throughput_per_s": n_seeds * len(timed) / sum(timed),
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
    else:
        plain, traced = timed[:n_plain], timed[n_plain:]
        n_traced = len(traced)
        spans = probes.reduce_spans(tracer.threads)
        metrics = train_layer_metrics(spans, n_traced)
        roots = spans["<roots>"]
        root_s = roots["total"][0] / n_traced
        # Threads that are not the main thread: the pipeline's two
        # stage workers and the store prefetcher (its time is reported
        # on its own as store.prefetch_worker_s).
        worker_s = roots["total"][1] / n_traced
        prefetch = metrics["store.prefetch_worker_s"] or 0.0
        others = [v for k, v in metrics.items()
                  if k.endswith("_other_s") and v is not None]
        metrics.update({
            "graph.input_nodes": (
                tracer.counts["graph.input_nodes"] / n_traced
                if "graph.input_nodes" in tracer.counts else None
            ),
            "core.micro_batches": (
                sum(micro_batches[1 + n_plain:]) / n_traced
            ),
            "core.trainer_init_s": setup.timings["core.trainer_init_s"],
            "store.build_s": setup.timings["store.build_s"],
            "datasets.load_s": setup.timings["datasets.load_s"],
            "pipeline.worker_busy_s": (
                worker_s - prefetch
                if metrics["pipeline.run_other_s"] is not None else None
            ),
            "device.peak_frac": peak_frac,
            "device.oom_retries": oom_retries,
            "obs.estimator_abs_rel_error":
                trainer.telemetry.mean_abs_rel_error(),
            "training.first_epoch_s": first_epoch_s,
            "store.peak_resident_frac": resident_frac,
            "trace.overhead_frac":
                statistics.median(traced) / statistics.median(plain) - 1.0,
            "trace.coverage_frac": 1.0 - sum(others) / root_s,
            "trace.probes_missing": len(tracer.missing),
        })
        if store_delta is not None:
            metrics.update({
                "store.rows_served": store_delta["rows"] / n_traced,
                "store.hot_hit_ratio":
                    store_delta["hot"] / store_delta["rows"],
                "store.bytes_read": store_delta["bytes"] / n_traced,
            })
        result["metrics"] = metrics
        result["span_totals"] = {
            "root_s": roots["total"][0],
            "self_sum_s": sum(
                e["self"][0] for k, e in spans.items() if k != "<roots>"
            ),
        }
    return result


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
@dataclass
class ServeSetup:
    dataset: object
    model: object
    engine: object  # the open phase's, behind ``server``
    server: object  # started
    make_engine: object  # cache_bytes -> a fresh engine
    start_server: object  # engine -> a started server
    knobs_dropped: list
    load_s: float


def setup_serve(cfg: ServeConfig, seed: int) -> ServeSetup:
    from repro.serve import BatchPolicy, ServeEngine, ServeServer

    dropped: list = []
    start = time.perf_counter()
    dataset = datasets.load(cfg.dataset, scale=cfg.scale, seed=seed)
    load_s = time.perf_counter() - start
    spec = ModelSpec(
        dataset.feat_dim, cfg.hidden, dataset.n_classes, len(FANOUTS), "mean"
    )
    model = build_model(spec, rng=seed)
    policy = BatchPolicy(
        max_batch=cfg.max_batch,
        max_wait_s=cfg.max_wait_s,
        max_queue_depth=cfg.max_queue_depth,
    )

    def make_engine(cache_bytes: int):
        knobs = {"sampler_seed": seed}
        try:
            from repro.serve import EmbeddingCache

            knobs["cache"] = EmbeddingCache(cache_bytes)
        except ImportError:
            dropped.append("cache")
        return call_with_knobs(
            ServeEngine,
            (model, dataset.graph, dataset.features, FANOUTS),
            knobs,
            dropped,
        )

    def start_server(engine):
        return ServeServer(engine, policy).start()

    engine = make_engine(cfg.open_cache_bytes)
    return ServeSetup(
        dataset, model, engine, start_server(engine), make_engine,
        start_server, dropped, load_s,
    )


def collect(pending, due: float | None, out: dict,
            timed: bool = True) -> None:
    """Wait for one request and file its outcome; the latency of a
    warm-up request (``timed`` false) is dropped."""
    out["submitted"] += 1
    try:
        response = pending.result(timeout=30.0)
    except ReproError:  # rejected at admission, shut down on, or timed out
        out["failed"] += 1
        return
    if not np.all(np.isfinite(response.logits)):
        out["failed"] += 1
        return
    sent = pending.request.arrival_s
    out["done_at"] = max(out["done_at"], sent + response.latency_s)
    if not timed:
        return
    if due is None:
        out["latency_s"].append(response.latency_s)
    else:
        out["latency_s"].append(sent + response.latency_s - due)
        out["lateness_s"].append(sent - due)


def new_outcome() -> dict:
    return {"submitted": 0, "failed": 0, "done_at": 0.0,
            "latency_s": [], "lateness_s": []}


def run_open(server, requests, warmup: int) -> dict:
    """Open loop: each request is sent at its due time, whatever the
    server's backlog, and timed from that due time.  The first
    ``warmup`` requests are part of the same stream but not timed."""
    out = new_outcome()
    origin = time.perf_counter() + 0.05
    sent = []
    for request in requests:
        due = origin + request.arrival_s
        while True:
            delay = due - time.perf_counter()
            if delay <= 0:
                break
            time.sleep(delay)
        sent.append((due, server.submit(request.node)))
    for index, (due, pending) in enumerate(sent):
        collect(pending, due, out, timed=index >= warmup)
    out["wall_s"] = out["done_at"] - origin
    return out


def run_closed(server, requests, in_flight: int) -> dict:
    """Closed loop: ``in_flight`` requests outstanding; the oldest is
    awaited before the next is sent, so a slow server gets less load."""
    out = new_outcome()
    window: deque = deque()
    start = time.perf_counter()
    for request in requests:
        if len(window) == in_flight:
            collect(window.popleft(), None, out)
        window.append(server.submit(request.node))
    while window:
        collect(window.popleft(), None, out)
    out["wall_s"] = time.perf_counter() - start
    return out


def percentile_ms(values_s: list[float], q: float) -> float:
    return float(np.percentile(values_s, q)) * 1e3


def serve_phase_metrics(prefix: str, spans: dict, engine, server,
                        outcome: dict) -> dict:
    def both(name: str, kind: str):
        entry = spans.get(name)
        if entry is None or sum(entry["calls"]) == 0:
            return None
        return sum(entry[kind])

    def add(*values):
        present = [v for v in values if v is not None]
        return sum(present) if present else None

    stats = getattr(getattr(engine, "cache", None), "stats", None)
    lookups = stats["hits"] + stats["misses"] if stats else 0
    served = outcome["submitted"] - outcome["failed"]
    rows = {
        "queue_wait_s": both("serve.queue_wait", "self"),
        "predict_busy_s": both("serve.predict_other", "total"),
        "sample_s": add(both("graph.sample", "self"),
                        both("core.fastblock", "self")),
        "forward_s": both("gnn.forward_other", "total"),
        "cache_s": both("serve.cache", "self"),
        "predict_other_s": both("serve.predict_other", "self"),
        "submit_s": both("serve.submit", "self"),
        "cache_hit_ratio": stats["hits"] / lookups if lookups else None,
        "mean_batch_size": served / server.batches if server.batches else None,
        "batches": server.batches,
        "computed_requests": stats["misses"] if stats else None,
    }
    return {f"serve.{prefix}_{k}": v for k, v in rows.items()}


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              smoke: bool, process_start: float) -> dict:
    from repro.serve import LoadSpec, generate_trace

    cfg = config(name, smoke)
    setup = setup_serve(cfg, seed)
    setup_s = time.perf_counter() - process_start
    dataset, make_engine, start_server = (
        setup.dataset, setup.make_engine, setup.start_server
    )

    open_requests = generate_trace(
        LoadSpec(
            n_requests=scaled(cfg.open_requests, seconds),
            rate_hz=cfg.open_rate_hz,
            zipf_exponent=cfg.open_zipf,
            seed=seed,
        ),
        dataset.train_nodes,
    )
    closed_requests = generate_trace(
        LoadSpec(
            n_requests=scaled(cfg.closed_requests, seconds),
            zipf_exponent=0.0,
            seed=seed + 1,
        ),
        np.arange(dataset.n_nodes),
    )
    metrics: dict = {}
    missing: list = []

    def phase(prefix, engine, server, drive, traced):
        """Run one phase on a started server, stop it, reduce its spans."""
        tracer = probes.Tracer()
        with (
            probes.installed(tracer, model=setup.model)
            if traced else nullcontext()
        ):
            try:
                outcome = drive(server)
            finally:
                # Inside the block: the worker's last span must close
                # before the probes go.
                server.stop()
        if traced:
            missing[:] = tracer.missing
            metrics.update(serve_phase_metrics(
                prefix, probes.reduce_spans(tracer.threads), engine, server,
                outcome,
            ))
        return outcome

    def closed_loop(requests):
        return lambda s: run_closed(s, requests, cfg.closed_in_flight)

    opened = phase(
        "open", setup.engine, setup.server,
        lambda s: run_open(
            s, open_requests, scaled(cfg.open_warmup_requests, seconds)
        ),
        trace,
    )
    plain = None
    if trace:
        # Tracing overhead: the first half of the closed phase runs
        # unprobed, on its own fresh engine, as the baseline.
        half = len(closed_requests) // 2
        engine = make_engine(0)
        plain = phase(
            "plain", engine, start_server(engine),
            closed_loop(closed_requests[:half]), False,
        )
        closed_requests = closed_requests[half:]
    engine = make_engine(0)
    closed = phase(
        "closed", engine, start_server(engine),
        closed_loop(closed_requests), trace,
    )
    rss = peak_rss_mb()

    def rate(outcome):
        return (outcome["submitted"] - outcome["failed"]) / outcome["wall_s"]

    submitted = opened["submitted"] + closed["submitted"]
    failed = opened["failed"] + closed["failed"]
    if plain is not None:
        submitted += plain["submitted"]
        failed += plain["failed"]

    # Batched and unbatched serving must agree bit for bit.
    engine = make_engine(0)
    nodes = [r.node for r in closed_requests[:16]]
    batched, _ = engine.predict_batch(nodes)
    alone = np.stack([engine.predict_one(n) for n in nodes])
    checks = [
        check(
            "batched_equals_unbatched", np.array_equal(batched, alone),
            f"{len(nodes)} nodes, max |diff| "
            f"{float(np.max(np.abs(batched - alone)))!r}",
        ),
        check("no_failed_requests", failed == 0,
              f"{failed} of {submitted}"),
    ]

    result = {
        "attempted": submitted,
        "failed": failed,
        "knobs_dropped": setup.knobs_dropped,
        "probes_missing": missing,
        "checks": checks,
    }
    if not trace:
        result["metrics"] = {
            "latency_p50_ms": percentile_ms(opened["latency_s"], 50),
            "latency_tail_ms": percentile_ms(opened["latency_s"], 95),
            "throughput_per_s": rate(closed),
            "peak_rss_mb": rss,
            "setup_s": setup_s,
        }
    else:
        busy = metrics.get("serve.closed_predict_busy_s")
        other = metrics.get("serve.closed_predict_other_s")
        metrics.update({
            "datasets.load_s": setup.load_s,
            "serve.open_achieved_rps": rate(opened),
            "serve.open_latency_p99_ms":
                percentile_ms(opened["latency_s"], 99),
            "serve.open_lateness_p99_ms":
                percentile_ms(opened["lateness_s"], 99),
            "serve.closed_latency_p50_ms":
                percentile_ms(closed["latency_s"], 50),
            "trace.overhead_frac": rate(plain) / rate(closed) - 1.0,
            "trace.coverage_frac": 1.0 - other / busy if busy else None,
            "trace.probes_missing": len(missing),
        })
        result["metrics"] = metrics
    return result


def setup_only(name: str, seed: int, smoke: bool, process_start: float) -> float:
    """One cold set-up, for the median the parent run reports."""
    cfg = config(name, smoke)
    if name in TRAIN:
        setup_train(cfg, seed)
        return time.perf_counter() - process_start
    server = setup_serve(cfg, seed).server
    elapsed = time.perf_counter() - process_start
    server.stop()
    return elapsed


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        process_start: float) -> dict:
    runner = run_train if name in TRAIN else run_serve
    return runner(name, seed, seconds, trace, smoke, process_start)
