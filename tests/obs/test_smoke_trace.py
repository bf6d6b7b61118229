"""CI smoke: `repro train --trace --metrics` end-to-end on a tiny dataset.

Marked ``smoke`` so CI can select it alone (``pytest -m smoke``); it is
also tier-1 safe (fast, in-process) and runs in the default suite.
Validates every emitted JSONL event against the schema and checks the
acceptance surface of ISSUE 1: phase coverage, the estimator-accuracy
histogram, and a consistent `trace summarize` rendering.
"""

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_trace_file
from repro.obs.trace import read_jsonl

# Phases the trace must cover: sample / block-gen / schedule /
# micro-batch / train (Fig. 6 pipeline, Fig. 11 naming).
REQUIRED_SPANS = {
    "sampling",
    "block_generation",
    "buffalo_scheduling",
    "train.micro_batch",
    "train.epoch",
    "forward_backward_wall",
    "optimizer_step",
}


@pytest.mark.smoke
class TestTraceSmoke:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs")
        trace = out / "trace.jsonl"
        metrics = out / "metrics.json"
        code = main(
            [
                "train",
                "--dataset",
                "cora",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--batch-size",
                "30",
                "--fanouts",
                "5,5",
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        return trace, metrics

    def test_every_event_validates_against_schema(self, artifacts):
        trace, _ = artifacts
        assert validate_trace_file(str(trace)) > 0

    def test_trace_covers_pipeline_phases(self, artifacts):
        trace, _ = artifacts
        names = {
            e["name"] for e in read_jsonl(str(trace))
            if e["type"] == "span"
        }
        missing = REQUIRED_SPANS - names
        assert not missing, f"trace missing spans: {sorted(missing)}"

    def test_every_group_has_its_block_generation_span(self, artifacts):
        # Per iteration, the loop's block_generation spans (the ones
        # carrying a group index) number K, with indices 0..K-1.
        trace, _ = artifacts
        spans = [e for e in read_jsonl(str(trace)) if e["type"] == "span"]
        iterations = {
            e["span_id"]: e["attrs"]["k"]
            for e in spans
            if e["name"] == "buffalo.iteration"
        }
        assert iterations
        indices = {span_id: [] for span_id in iterations}
        for e in spans:
            if e["name"] == "block_generation" and "index" in e["attrs"]:
                indices[e["parent_id"]].append(e["attrs"]["index"])
        for span_id, k in iterations.items():
            assert sorted(indices[span_id]) == list(range(k))

    def test_spans_nest_under_known_parents(self, artifacts):
        trace, _ = artifacts
        events = list(read_jsonl(str(trace)))
        ids = {e["span_id"] for e in events}
        for event in events:
            assert event["parent_id"] is None or event["parent_id"] in ids

    def test_metrics_file_has_estimator_histogram(self, artifacts):
        _, metrics_path = artifacts
        payload = json.loads(metrics_path.read_text())
        accuracy = payload["estimator_accuracy"]
        assert accuracy["n_recorded"] > 0
        hist = accuracy["rel_error_histogram"]
        assert hist["count"] == accuracy["n_recorded"]
        assert sum(hist["counts"]) == hist["count"]
        for sample in accuracy["samples"]:
            assert sample["predicted_bytes"] > 0
            assert sample["actual_bytes"] > 0
        instruments = payload["metrics"]
        for name in (
            "buffalo.micro_batches_per_iter",
            "buffalo.groups_per_schedule",
            "buffalo.block_gen_nodes",
            "buffalo.peak_mem_bytes",
            "buffalo.estimator_rel_error",
        ):
            assert name in instruments, name

    def test_summarize_renders_phase_table(self, artifacts, capsys):
        trace, _ = artifacts
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        for phase in (
            "sampling",
            "block_generation",
            "buffalo_scheduling",
            "forward_backward_wall",
        ):
            assert phase in out
