"""Critical-path profiler: DAG reconstruction and wall attribution."""

import threading
import time

import pytest

from repro.obs.observatory.critical_path import (
    CriticalPathError,
    build_critical_path,
    render_critical_path,
    write_folded_stacks,
)


def _span(name, span_id, parent_id, ts, dur, thread="MainThread"):
    return {
        "v": 1,
        "type": "span",
        "name": name,
        "kind": "span",
        "span_id": span_id,
        "parent_id": parent_id,
        "ts": ts,
        "duration_s": dur,
        "thread": thread,
        "attrs": {},
    }


def synthetic_pipeline_events():
    """An epoch span over two iterations, with one worker thread."""
    return [
        # children emit before parents (spans close inner-first)
        _span("iter", 2, 1, 0.1, 0.35),
        _span("iter", 3, 1, 0.5, 0.4),
        _span("epoch", 1, None, 0.0, 1.0),
        # worker roots (thread-local stacks -> no parent)
        _span("blockgen", 10, None, 0.05, 0.3, thread="buffalo-blockgen"),
        _span("blockgen", 11, None, 0.45, 0.2, thread="buffalo-blockgen"),
        # a point event is ignored
        {"v": 1, "type": "event", "name": "p", "kind": "point",
         "span_id": 12, "parent_id": 1, "ts": 0.2, "duration_s": 0.0,
         "thread": "MainThread", "attrs": {}},
    ]


class TestBuild:
    def test_empty_raises(self):
        with pytest.raises(CriticalPathError):
            build_critical_path([])

    def test_main_thread_is_longest_root(self):
        report = build_critical_path(synthetic_pipeline_events())
        assert report.main_thread == "MainThread"
        assert report.interval_s == pytest.approx(1.0)

    def test_self_time_excludes_same_thread_children(self):
        report = build_critical_path(synthetic_pipeline_events())
        count, self_s = report.critical_self_s["epoch"]
        assert count == 1
        # epoch 1.0s minus children 0.35 + 0.4
        assert self_s == pytest.approx(0.25)
        assert report.critical_self_s["iter"] == (2, pytest.approx(0.75))

    def test_full_attribution_of_wrapped_interval(self):
        report = build_critical_path(synthetic_pipeline_events())
        # Self times sum back to the wrapping root's duration.
        assert report.attributed_s == pytest.approx(report.interval_s)
        assert report.coverage >= 0.95

    def test_worker_busy_time_is_overlapped_slack(self):
        report = build_critical_path(synthetic_pipeline_events())
        assert report.overlapped_busy_s["buffalo-blockgen"] == (
            pytest.approx(0.5)
        )

    def test_explicit_main_thread_override(self):
        report = build_critical_path(
            synthetic_pipeline_events(), main_thread="buffalo-blockgen"
        )
        assert report.main_thread == "buffalo-blockgen"
        assert "blockgen" in report.critical_self_s

    def test_unknown_thread_override_raises(self):
        with pytest.raises(CriticalPathError, match="no root spans"):
            build_critical_path(
                synthetic_pipeline_events(), main_thread="nope"
            )

    def test_events_without_thread_field_still_analyze(self):
        events = [
            {k: v for k, v in e.items() if k != "thread"}
            for e in synthetic_pipeline_events()
        ]
        report = build_critical_path(events)
        assert report.main_thread == "unknown"
        assert report.coverage >= 0.95

    def test_orphan_parent_becomes_root(self):
        # Child points at span 99 which never closed.
        report = build_critical_path([_span("orphan", 5, 99, 0.0, 0.2)])
        assert report.critical_self_s["orphan"] == (1, pytest.approx(0.2))


class TestRender:
    def test_render_tables(self):
        text = render_critical_path(
            build_critical_path(synthetic_pipeline_events())
        )
        assert "critical path" in text
        assert "coverage" in text
        assert "overlapped slack" in text
        assert "buffalo-blockgen" in text

    def test_folded_stacks(self, tmp_path):
        path = tmp_path / "out.folded"
        report = build_critical_path(synthetic_pipeline_events())
        n = write_folded_stacks(report, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == n > 0
        # Format: semicolon stack, space, integer microseconds.
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert ";" in stack
        assert any(
            line.startswith("MainThread;epoch;iter ") for line in lines
        )
        # Widths sum to per-thread wall time.
        main_total = sum(
            int(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("MainThread;")
        )
        assert main_total == pytest.approx(1.0e6, rel=0.01)


@pytest.mark.smoke
class TestLiveRun:
    def test_inline_engine_attributes_95_percent(self, tracer, sink):
        """ISSUE 6 acceptance: >=95% of epoch wall on named spans."""
        from repro.core.api import BuffaloTrainer
        from repro.datasets import load
        from repro.device import SimulatedGPU
        from repro.gnn.footprint import ModelSpec

        dataset = load("cora", scale=0.2, seed=0)
        spec = ModelSpec(dataset.feat_dim, 8, dataset.n_classes, 2, "mean")
        trainer = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=150_000),
            fanouts=[4, 4],
            seed=0,
        )
        with tracer.span("train.epoch"):
            report = trainer.run_iteration(dataset.train_nodes[:60])
        assert report.n_micro_batches > 1
        path = build_critical_path(sink.events)
        assert path.main_thread == threading.current_thread().name
        assert path.coverage >= 0.95
        # Every stage of the one iteration loop is on the critical
        # path: training hides nothing on another thread.
        assert path.overlapped_busy_s == {}
        for stage in (
            "block_generation",
            "train.micro_batch",
            "forward_backward_wall",
        ):
            assert stage in path.critical_self_s
        # One block_generation span per group, in schedule order.
        indices = [
            e["attrs"]["index"]
            for e in sink.events
            if e["type"] == "span"
            and e["name"] == "block_generation"
            and "index" in e["attrs"]
        ]
        assert indices == list(range(report.n_micro_batches))
