"""Staged execution engine: exactness, ordering, errors, overlap model."""

import numpy as np
import pytest

from repro.core import generate_micro_batches
from repro.errors import ReproError
from repro.obs.metrics import get_metrics
from repro.pipeline import (
    PipelineConfig,
    PipelineEngine,
    StageTiming,
    modeled_speedup,
    pipeline_makespan,
    sequential_time,
)


def _sequential_loss(make_trainer, dataset, batch, plan, cutoffs):
    trainer = make_trainer()
    micro_batches = generate_micro_batches(batch, plan)
    result = trainer.train_iteration(
        dataset, batch.node_map, micro_batches, cutoffs
    )
    return result, trainer.model.state_dict()


class TestExactness:
    def test_sync_matches_sequential(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        seq_result, seq_state = _sequential_loss(
            make_trainer, dataset, batch, plan, cutoffs
        )
        trainer = make_trainer()
        engine = PipelineEngine(
            [trainer], PipelineConfig(depth=3, mode="sync")
        )
        result, mbs, report = engine.run(dataset, batch, plan, cutoffs)
        assert result.loss == seq_result.loss
        assert len(mbs) == plan.k
        state = trainer.model.state_dict()
        for key in seq_state:
            np.testing.assert_array_equal(state[key], seq_state[key])

    @pytest.mark.parametrize("depth", [2, 4])
    def test_threaded_matches_sequential(
        self, make_trainer, dataset, batch, plan, cutoffs, depth
    ):
        # The compute stage stays on the caller thread in schedule
        # order, so even the threaded engine is bit-for-bit identical.
        seq_result, seq_state = _sequential_loss(
            make_trainer, dataset, batch, plan, cutoffs
        )
        trainer = make_trainer()
        engine = PipelineEngine(
            [trainer], PipelineConfig(depth=depth, mode="threaded")
        )
        result, _, report = engine.run(dataset, batch, plan, cutoffs)
        assert result.loss == seq_result.loss
        assert report.mode == "threaded"
        state = trainer.model.state_dict()
        for key in seq_state:
            np.testing.assert_array_equal(state[key], seq_state[key])

    def test_micro_batches_in_schedule_order(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        engine = PipelineEngine([make_trainer()], PipelineConfig(depth=2))
        _, mbs, _ = engine.run(dataset, batch, plan, cutoffs)
        for mb, group in zip(mbs, plan.groups):
            np.testing.assert_array_equal(mb.seed_rows, group.rows)

    def test_peaks_recorded_with_device(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        from repro.device import SimulatedGPU

        trainer = make_trainer(device=SimulatedGPU(capacity_bytes=1 << 40))
        engine = PipelineEngine([trainer], PipelineConfig(depth=2))
        result, _, _ = engine.run(dataset, batch, plan, cutoffs)
        assert result.peak_bytes > 0
        assert len(result.micro_batch_peaks) == plan.k


class TestFailureModes:
    def test_worker_error_propagates(
        self, monkeypatch, make_trainer, dataset, batch, plan, cutoffs
    ):
        import repro.pipeline.engine as engine_mod

        real = engine_mod.materialize_micro_batch
        calls = {"n": 0}

        def exploding(batch_, group):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("boom in block generation")
            return real(batch_, group)

        monkeypatch.setattr(
            engine_mod, "materialize_micro_batch", exploding
        )
        engine = PipelineEngine(
            [make_trainer()], PipelineConfig(depth=2, mode="threaded")
        )
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(dataset, batch, plan, cutoffs)

    def test_invalid_depth_rejected(self):
        with pytest.raises(ReproError):
            PipelineConfig(depth=0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ReproError):
            PipelineConfig(mode="eager")

    def test_mode_selection(self):
        assert not PipelineConfig(depth=1).threaded
        assert PipelineConfig(depth=2).threaded
        assert not PipelineConfig(depth=8, mode="sync").threaded
        assert PipelineConfig(depth=1, mode="threaded").threaded


class TestTelemetry:
    def test_metrics_and_report(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        metrics = get_metrics()
        iters = metrics.counter(
            "buffalo.pipeline.iterations",
            help="iterations executed by the staged engine",
        )
        before = iters.value
        engine = PipelineEngine([make_trainer()], PipelineConfig(depth=2))
        _, _, report = engine.run(dataset, batch, plan, cutoffs)
        assert iters.value == before + 1
        assert len(report.timings) == plan.k
        assert report.sequential_s > 0
        assert 0 < report.makespan_s <= report.sequential_s + 1e-12
        assert report.modeled_speedup >= 1.0
        assert (
            metrics.gauge("buffalo.pipeline.depth", help="").value == 2
        )


class TestOverlapModel:
    def test_unit_stage_example(self):
        timings = [StageTiming(1.0, 1.0, 1.0)] * 2
        assert sequential_time(timings) == 6.0
        # 3 stages x 1s, 2 items: the second item finishes one stage
        # behind the first -> makespan 4s.
        assert pipeline_makespan(timings, depth=2) == 4.0
        assert modeled_speedup(timings, depth=2) == pytest.approx(1.5)

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(0)
        timings = [
            StageTiming(*rng.uniform(0.01, 1.0, size=3)) for _ in range(12)
        ]
        seq = sequential_time(timings)
        prev = float("inf")
        stage_sums = [
            sum(t.stages()[s] for t in timings) for s in range(3)
        ]
        for depth in (1, 2, 4, 16):
            span = pipeline_makespan(timings, depth)
            # Deeper queues never slow the schedule down; the busiest
            # stage is an absolute lower bound, serial an upper bound.
            assert span <= prev + 1e-12
            assert span <= seq + 1e-12
            assert span >= max(stage_sums) - 1e-12
            prev = span

    def test_empty_and_errors(self):
        assert pipeline_makespan([], 2) == 0.0
        assert modeled_speedup([], 2) == 1.0
        with pytest.raises(ReproError):
            pipeline_makespan([StageTiming(1, 1, 1)], 0)

    def test_single_item_has_no_overlap(self):
        timings = [StageTiming(0.5, 0.25, 1.0)]
        assert pipeline_makespan(timings, 4) == pytest.approx(1.75)
        assert modeled_speedup(timings, 4) == pytest.approx(1.0)
