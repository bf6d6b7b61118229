"""Tests of the end-to-end benchmark harness (not of ``repro``).

Run with ``python -m pytest benchmarks/e2e/tests -q``; the directory is
outside tier-1's ``testpaths`` because the smoke run takes ~20 s.
"""

from __future__ import annotations

import gc
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import probes
import registry
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_py(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# Manifest and registry
# ----------------------------------------------------------------------
def test_manifest_is_generated_from_registry():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == registry.manifest()


def test_manifest_obeys_the_driver_limits():
    manifest = registry.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in manifest["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(registry.EXACT_COUNTS) <= {
        m["name"] for m in manifest["per_layer"]
    }


# ----------------------------------------------------------------------
# The whole harness, shrunk
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "summary.json"
    start = time.perf_counter()
    done = run_py("--all", "--smoke", "--json", str(out))
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(out.read_text())
    summary["elapsed_s"] = elapsed
    summary["stdout"] = done.stdout
    return summary


def test_smoke_runs_every_workload_quickly(smoke):
    assert list(smoke["workloads"]) == [w["name"] for w in registry.WORKLOADS]
    # ~20 s on the 2-core reference host; the margin is for a busy one.
    assert smoke["elapsed_s"] < 60
    assert smoke["correct"] is True
    assert smoke["claim"] is None
    assert json.loads(smoke["stdout"].splitlines()[-1])["claim"] is None
    assert {"nproc", "blas_threads", "python", "numpy", "scipy",
            "git_revision"} <= set(smoke["host"])


def test_smoke_emits_every_registered_metric(smoke):
    end_to_end = [m["name"] for m in registry.END_TO_END]
    per_layer = [m["name"] for m in registry.PER_LAYER]
    for name, runs in smoke["workloads"].items():
        assert list(runs["untraced"]["metrics"]) == end_to_end, name
        assert all(
            isinstance(v, (int, float)) and v > 0
            for v in runs["untraced"]["metrics"].values()
        ), name
        assert list(runs["traced"]["metrics"]) == per_layer, name
        assert runs["untraced"]["attempted"] >= 1
        assert runs["untraced"]["failed"] == 0
        for metric in end_to_end + per_layer:
            assert f"{metric} " in smoke["stdout"]


def test_smoke_layers_show_only_where_they_run(smoke):
    def observed(workload, prefix):
        metrics = smoke["workloads"][workload]["traced"]["metrics"]
        return [k for k, v in metrics.items()
                if k.startswith(prefix) and v is not None]

    for prefix in ("store.", "pipeline."):
        assert observed("train_store_tight", prefix)
        assert not observed("train_mean_wide", prefix)
        assert not observed("train_lstm_tight", prefix)
        assert not observed("serve_live", prefix)
    assert observed("serve_live", "serve.")
    assert not observed("train_mean_wide", "serve.")
    serve = smoke["workloads"]["serve_live"]["traced"]["metrics"]
    assert serve["serve.closed_cache_hit_ratio"] == 0
    assert serve["serve.open_cache_hit_ratio"] > 0.5


def test_smoke_self_times_sum_to_the_root_spans(smoke):
    for name, runs in smoke["workloads"].items():
        if name.startswith("train_"):
            trace = runs["traced"]["span_totals"]
            assert trace["root_s"] > 0
            assert trace["self_sum_s"] == pytest.approx(
                trace["root_s"], rel=1e-9
            )


def test_smoke_probes_observe_without_changing(smoke):
    for name, runs in smoke["workloads"].items():
        assert all(c["ok"] for c in runs["cross_checks"]), name
        assert runs["traced"]["probes_missing"] == []
        assert runs["traced"]["knobs_dropped"] == []
        assert runs["traced"]["metrics"]["trace.probes_missing"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_is_the_drivers_contract(trace):
    done = run_py("--workload", "serve_live", "--seed", "3", "--seconds", "15",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert line["failed"] == 0
    wanted = registry.PER_LAYER if trace == "1" else registry.END_TO_END
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = line["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_no_store_directory_is_left_behind(smoke):
    assert not (HERE / ".tmp").exists()


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def test_self_times_sum_to_the_root():
    tracer = probes.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_probe = tracer.wrap("leaf", leaf)

    def middle():
        leaf_probe()
        time.sleep(0.001)
        leaf_probe()

    middle_probe = tracer.wrap("middle", middle)
    with tracer.span("root"):
        middle_probe()
        leaf_probe()
    spans = probes.reduce_spans(tracer.threads)
    root = spans["<roots>"]["total"][0]
    assert spans["root"]["total"][0] == root
    assert spans["leaf"]["calls"][0] == 3
    assert sum(
        entry["self"][0] for name, entry in spans.items() if name != "<roots>"
    ) == pytest.approx(root, rel=1e-9)
    assert spans["leaf"]["self"][0] >= 0.006


def test_nested_spans_of_one_name_count_once():
    tracer = probes.Tracer()
    inner = tracer.wrap("kernels.forward", lambda: time.sleep(0.001))
    outer = tracer.wrap("kernels.forward", inner)
    outer()
    entry = probes.reduce_spans(tracer.threads)["kernels.forward"]
    assert entry["calls"][0] == 1
    assert entry["total"][0] == pytest.approx(entry["self"][0], rel=1e-9)


def test_a_removed_probe_target_degrades_to_null():
    from repro.tensor import Tensor

    tracer = probes.Tracer()
    original = Tensor.backward
    with probes.installed(
        tracer,
        class_methods=[
            ("core.schedule", "repro.core:DeletedScheduler", "schedule"),
            ("store.gather", "repro.no_such_package:FeatureStore", "gather"),
            ("tensor.backward", "repro.tensor:Tensor", "backward"),
        ],
        module_functions=[("graph.sample", "repro.graph:deleted_function")],
    ):
        assert Tensor.backward is not original
    assert Tensor.backward is original
    assert tracer.missing == [
        "repro.core:DeletedScheduler.schedule",
        "repro.no_such_package:FeatureStore.gather",
        "repro.graph:deleted_function",
    ]
    metrics = workloads.train_layer_metrics(
        probes.reduce_spans(tracer.threads), 1
    )
    assert metrics["core.schedule_s"] is None
    assert metrics["graph.sample_s"] is None


def test_probes_are_removed_again():
    from repro.core import fastblock, trainer
    from repro.pipeline import engine

    collect = gc.collect
    generate = fastblock.generate_blocks_fast
    tracer = probes.Tracer()
    with probes.installed(tracer):
        assert gc.collect is not collect
        assert trainer.gc.collect is not collect
        assert fastblock.generate_blocks_fast is not generate
        assert engine.materialize_micro_batch.__wrapped__
    assert gc.collect is collect
    assert fastblock.generate_blocks_fast is generate
    assert not hasattr(engine.materialize_micro_batch, "__wrapped__")
    assert tracer.missing == []


def test_a_rejected_knob_is_dropped_and_listed():
    def constructor(dataset, *, seed=0, kernel_backend="reference"):
        return dataset, seed, kernel_backend

    dropped: list = []
    built = workloads.call_with_knobs(
        constructor, ("ds",),
        {"seed": 4, "kernel_backend": "fused", "pipeline_depth": 2,
         "pipeline_mode": "threaded"},
        dropped,
    )
    assert built == ("ds", 4, "fused")
    assert dropped == ["pipeline_depth", "pipeline_mode"]

    def open_ended(dataset, **kwargs):
        return kwargs

    dropped = []
    assert workloads.call_with_knobs(
        open_ended, ("ds",), {"pipeline_depth": 2}, dropped
    ) == {"pipeline_depth": 2}
    assert dropped == []
