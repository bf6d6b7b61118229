"""Training-loop additions: one thread, and wall_s accounting."""

import threading
import time

import pytest

from repro.core import BuffaloTrainer
from repro.datasets import load
from repro.device import DeviceFleet, SimulatedGPU
from repro.gnn.footprint import ModelSpec
from repro.obs.trace import CallbackSink, get_tracer
from repro.store import build_store, open_store_dataset
from repro.training import TrainingLoop


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def spec(dataset):
    return ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")


class TestTrainingRunsOnOneThread:
    """No ``repro`` training code starts a thread."""

    @pytest.fixture()
    def watched(self, monkeypatch):
        """Thread names started while the test runs."""
        started = []
        real_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        return started

    @pytest.fixture()
    def store_dataset(self, tmp_path, dataset):
        build_store(dataset, tmp_path / "ds.store", shard_rows=64)
        host_budget = dataset.features.nbytes // 2
        return open_store_dataset(
            tmp_path / "ds.store",
            hot_cache_bytes=host_budget // 8,
            host_budget_bytes=host_budget,
        )

    @pytest.mark.parametrize("parallel", ["data", "split"])
    def test_store_backed_fleet_iteration_and_epoch(
        self, watched, store_dataset, spec, parallel
    ):
        before = threading.active_count()
        trainer = BuffaloTrainer(
            store_dataset,
            spec,
            DeviceFleet(2, capacity_bytes=1 << 40),
            fanouts=[5, 5],
            seed=0,
            clustering_coefficient=0.2,
            memory_constraint=150_000,
            parallel=parallel,
            kernel_backend="fused",
        )
        report = trainer.run_iteration(store_dataset.train_nodes[:60])
        assert report.n_micro_batches > 1
        assert set(report.assignments) == {0, 1}
        loop = TrainingLoop(
            trainer=trainer, dataset=store_dataset, batch_size=60, seed=0
        )
        loop.run(1)
        assert watched == []
        assert threading.active_count() == before
        assert not [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("buffalo-")
        ]


class TestEpochWallClock:
    @pytest.mark.slow
    def test_wall_s_excludes_trace_sink_flush(self, dataset, spec):
        """A slow sink on the epoch span must not inflate wall_s."""
        trainer = BuffaloTrainer(
            dataset,
            spec,
            SimulatedGPU(capacity_bytes=1 << 40),
            fanouts=[5, 5],
            seed=0,
            clustering_coefficient=0.2,
        )
        loop = TrainingLoop(
            trainer=trainer,
            dataset=dataset,
            batch_size=len(dataset.train_nodes),
            seed=0,
        )
        sink_delay = 0.6

        def slow_emit(event):
            if event.get("name") == "train.epoch":
                time.sleep(sink_delay)

        tracer = get_tracer()
        sink = tracer.add_sink(CallbackSink(slow_emit))
        try:
            outer_start = time.perf_counter()
            result = loop.run(1)[0]
            outer = time.perf_counter() - outer_start
        finally:
            tracer.remove_sink(sink)
        # The sink slept after the measurement point: the epoch's
        # wall_s must be at least the sink delay shorter than the
        # end-to-end time around run().
        assert outer >= result.wall_s + sink_delay * 0.9
        assert result.wall_s > 0
