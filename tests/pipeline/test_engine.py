"""The in-line engine: exactness, ordering, errors, telemetry."""

import numpy as np
import pytest

from repro.core import generate_micro_batches
from repro.errors import ReproError
from repro.obs.metrics import get_metrics
from repro.pipeline import PipelineEngine, StageTiming
from repro.pipeline.model import fleet_makespan


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
        engine = PipelineEngine([trainer])
        result, mbs, report = engine.run(dataset, batch, plan, cutoffs)
        assert result.loss == seq_result.loss
        assert len(mbs) == plan.k
        state = trainer.model.state_dict()
        for key in seq_state:
            np.testing.assert_array_equal(state[key], seq_state[key])

    def test_micro_batches_in_schedule_order(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        engine = PipelineEngine([make_trainer()])
        _, mbs, _ = engine.run(dataset, batch, plan, cutoffs)
        for mb, group in zip(mbs, plan.groups):
            np.testing.assert_array_equal(mb.seed_rows, group.rows)

    def test_peaks_recorded_with_device(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        from repro.device import SimulatedGPU

        trainer = make_trainer(device=SimulatedGPU(capacity_bytes=1 << 40))
        engine = PipelineEngine([trainer])
        result, _, _ = engine.run(dataset, batch, plan, cutoffs)
        assert result.peak_bytes > 0
        assert len(result.micro_batch_peaks) == plan.k


class TestFailureModes:
    def test_block_generation_error_propagates(
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
        engine = PipelineEngine([make_trainer()])
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(dataset, batch, plan, cutoffs)
        # Strictly in line: the failure stopped the loop at group 2.
        assert calls["n"] == 2


class TestTelemetry:
    def test_metrics_and_report(
        self, make_trainer, dataset, batch, plan, cutoffs
    ):
        metrics = get_metrics()
        iters = metrics.counter(
            "buffalo.pipeline.iterations",
            help="iterations executed by the engine",
        )
        before = iters.value
        engine = PipelineEngine([make_trainer()])
        _, _, report = engine.run(dataset, batch, plan, cutoffs)
        assert iters.value == before + 1
        assert len(report.timings) == plan.k
        for timing in report.timings:
            assert timing.block_gen_s > 0
            assert timing.staging_s > 0
            assert timing.compute_s > 0


class TestFleetMakespan:
    def test_host_prep_serial_compute_per_device(self):
        timings = [StageTiming(1.0, 1.0, 4.0)] * 2
        # One device: the second group's compute waits for the first.
        assert fleet_makespan(timings, [0, 0]) == 10.0
        # Two devices: prep stays serial (2 s each), computes overlap.
        assert fleet_makespan(timings, [0, 1]) == 8.0

    def test_empty_and_mismatched(self):
        assert fleet_makespan([], []) == 0.0
        with pytest.raises(ReproError):
            fleet_makespan([StageTiming(1.0, 1.0, 1.0)], [0, 1])
