"""Memory timeline recorder: three-tier sampling on live training runs."""

import numpy as np
import pytest

from repro.obs.observatory.timeline import (
    MemoryTimelineRecorder,
    TimelineError,
    TimelineSample,
    load_timeline,
    render_timeline,
    write_timeline,
)


class _Tier:
    def __init__(self, **attrs):
        for key, value in attrs.items():
            setattr(self, key, value)


class TestRecorder:
    def test_sampling_reads_all_tiers(self):
        recorder = MemoryTimelineRecorder(
            device=_Tier(live_bytes=10, peak_bytes=20),
            store=_Tier(resident_bytes=30),
            workspace=_Tier(nbytes=50),
        )
        recorder.begin_iteration(3)
        sample = recorder.sample("micro_batch")
        assert sample.iteration == 3
        assert sample.device_live_bytes == 10
        assert sample.device_peak_bytes == 20
        assert sample.store_resident_bytes == 30
        assert sample.workspace_bytes == 50

    def test_missing_tiers_read_zero(self):
        recorder = MemoryTimelineRecorder()
        sample = recorder.sample("x")
        assert sample.device_live_bytes == 0.0
        assert sample.store_resident_bytes == 0.0

    def test_max_samples_cap(self):
        recorder = MemoryTimelineRecorder(max_samples=2)
        assert recorder.sample("a") is not None
        assert recorder.sample("b") is not None
        assert recorder.sample("c") is None
        assert recorder.dropped == 1
        assert len(recorder.samples) == 2

    def test_tier_peaks(self):
        device = _Tier(live_bytes=5, peak_bytes=8)
        recorder = MemoryTimelineRecorder(device=device)
        recorder.sample("a")
        device.live_bytes = 100
        device.peak_bytes = 120
        recorder.sample("b")
        assert recorder.tier_peaks()["device"] == 120
        assert recorder.tier_peaks()["store"] == 0.0


class TestRoundTrip:
    def test_write_and_load(self, tmp_path):
        recorder = MemoryTimelineRecorder(
            device=_Tier(live_bytes=1, peak_bytes=2)
        )
        recorder.begin_iteration(0)
        recorder.sample("micro_batch")
        path = tmp_path / "tl.jsonl"
        recorder.to_jsonl(str(path))
        samples = load_timeline(str(path))
        assert len(samples) == 2  # iteration_begin + micro_batch
        assert samples[0].label == "iteration_begin"
        assert isinstance(samples[0], TimelineSample)

    def test_load_tolerates_torn_tail(self, tmp_path):
        recorder = MemoryTimelineRecorder()
        recorder.sample("a")
        path = tmp_path / "tl.jsonl"
        recorder.to_jsonl(str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "ind')
        assert len(load_timeline(str(path))) == 1

    def test_file_written_with_the_cache_tier_still_loads(self, tmp_path):
        # A line exactly as the four-tier recorder (before the feature
        # reuse cache was deleted) wrote it.
        path = tmp_path / "tl.jsonl"
        path.write_text(
            '{"v":1,"index":0,"iteration":2,"label":"micro_batch",'
            '"t_s":0.25,"device_live_bytes":10.0,"device_peak_bytes":20.0,'
            '"store_resident_bytes":30.0,"cache_resident_bytes":40.0,'
            '"workspace_bytes":50.0}\n'
        )
        (sample,) = load_timeline(str(path))
        assert (sample.iteration, sample.label) == (2, "micro_batch")
        assert sample.store_resident_bytes == 30.0
        assert sample.workspace_bytes == 50.0
        assert "cache" not in render_timeline([sample])

    def test_malformed_sample_raises(self, tmp_path):
        path = tmp_path / "tl.jsonl"
        path.write_text('{"v": 1, "nope": true}\n{"also": "bad"}\n')
        with pytest.raises(TimelineError):
            load_timeline(str(path))


class TestRender:
    def _samples(self):
        recorder = MemoryTimelineRecorder(
            device=_Tier(live_bytes=1 << 20, peak_bytes=2 << 20),
            store=_Tier(resident_bytes=512),
        )
        recorder.begin_iteration(0)
        recorder.sample("micro_batch")
        return recorder.samples

    def test_ascii_table(self):
        text = render_timeline(self._samples())
        assert "memory timeline" in text
        assert "device_live" in text
        assert "workspace" in text
        assert "micro_batch" in text

    def test_csv(self):
        text = render_timeline(self._samples(), csv=True)
        lines = text.splitlines()
        assert lines[0].startswith("idx,iter,label")
        assert len(lines) == 3


@pytest.mark.smoke
class TestLiveRun:
    def test_k_gt_1_store_run_shows_all_three_tiers(self, tmp_path, cora_tl):
        """A K>1 out-of-core run populates every tier of the timeline."""
        trainer, dataset = cora_tl
        recorder = trainer.attach_timeline()
        seeds = dataset.train_nodes[:120]
        report = trainer.run_iteration(seeds)
        assert report.plan.k > 1
        labels = [s.label for s in recorder.samples]
        assert labels.count("micro_batch") == report.plan.k
        assert labels[0] == "iteration_begin"
        assert labels[-1] == "iteration_end"
        peaks = recorder.tier_peaks()
        assert peaks["device"] > 0
        assert peaks["store"] > 0
        assert peaks["workspace"] > 0
        # Iterations are stamped per sample.
        assert {s.iteration for s in recorder.samples} == {0}
        path = tmp_path / "tl.jsonl"
        recorder.to_jsonl(str(path))
        loaded = load_timeline(str(path))
        assert len(loaded) == len(recorder.samples)

    def test_detach_restores_noop(self, cora_tl):
        trainer, dataset = cora_tl
        trainer.attach_timeline()
        trainer.detach_timeline()
        assert trainer.trainers[0].timeline is None
        trainer.run_iteration(dataset.train_nodes[:120])
        assert trainer.timeline is None


@pytest.fixture()
def cora_tl(tmp_path):
    """A store-backed K>1 trainer with fused kernels."""
    from repro.core.api import BuffaloTrainer
    from repro.datasets import load, open_dataset
    from repro.device import SimulatedGPU
    from repro.gnn.footprint import ModelSpec
    from repro.store import build_store

    base = load("cora", scale=0.3, seed=0)
    dest = tmp_path / "cora.store"
    build_store(base, dest, shard_rows=64)
    dataset = open_dataset(dest, hot_cache_bytes=1 << 16)
    spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")
    # The fused backend's CSR paths borrow scratch from the workspace
    # arena, so the arena tier is actually exercised.
    device = SimulatedGPU(capacity_bytes=600_000)
    trainer = BuffaloTrainer(
        dataset,
        spec,
        device,
        fanouts=[8, 8],
        seed=0,
        kernel_backend="fused",
    )
    return trainer, dataset
