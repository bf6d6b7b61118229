"""FeatureStore: gather correctness, hot cache, budget."""

import numpy as np
import pytest

from repro.store import FeatureStore, open_store_dataset


@pytest.fixture()
def fs(cora_store):
    # Hot cache sized for ~40 rows; cora at this scale has 541 nodes.
    return FeatureStore(cora_store, hot_cache_bytes=40 * 64 * 4)


class TestGather:
    def test_matches_in_memory(self, fs, cora):
        ids = np.array([0, 5, 3, 400, 3, 77, 540])
        np.testing.assert_array_equal(fs.gather(ids), cora.features[ids])

    def test_ndarray_protocol(self, fs, cora):
        ids = np.array([9, 1, 250])
        np.testing.assert_array_equal(fs[ids], cora.features[ids])
        np.testing.assert_array_equal(fs[7], cora.features[7])
        np.testing.assert_array_equal(fs[10:30:3], cora.features[10:30:3])
        assert fs.shape == cora.features.shape
        assert fs.dtype == cora.features.dtype
        assert len(fs) == cora.features.shape[0]
        assert fs.nbytes == cora.features.nbytes

    def test_astype_nocopy_keeps_store(self, fs):
        assert fs.astype(fs.dtype, copy=False) is fs

    def test_materialize(self, fs, cora):
        np.testing.assert_array_equal(fs.materialize(), cora.features)
        np.testing.assert_array_equal(np.asarray(fs), cora.features)

    def test_cross_shard_gather(self, fs, cora):
        # shard_rows=64: these ids span four different shards.
        ids = np.array([63, 64, 128, 300, 0])
        np.testing.assert_array_equal(fs.gather(ids), cora.features[ids])


class TestHotCache:
    def test_highest_degree_rows_are_hot(self, fs, cora):
        hubs = np.argsort(-cora.graph.degrees, kind="stable")[: fs.hot_rows]
        assert all(fs._hot_slot[h] >= 0 for h in hubs)

    def test_hot_hits_counted(self, fs, cora):
        hub = int(np.argmax(cora.graph.degrees))
        before = fs.hot_hits
        fs.gather(np.array([hub]))
        assert fs.hot_hits == before + 1
        assert fs.hot_hit_rate > 0

    def test_disabled_cache_still_correct(self, cora_store, cora):
        fs = FeatureStore(cora_store, hot_cache_bytes=0)
        assert fs.hot_rows == 0
        ids = np.array([1, 500, 2])
        np.testing.assert_array_equal(fs.gather(ids), cora.features[ids])
        assert fs.hot_hits == 0
        assert fs.disk_rows == 3

    def test_hub_gathers_mostly_hit(self, fs, cora):
        """Power-law graphs: a small cache absorbs hub-heavy gathers."""
        hubs = np.argsort(-cora.graph.degrees, kind="stable")[:30]
        fs.gather(hubs)
        assert fs.hot_hit_rate == 1.0

    def test_counters_the_e2e_harness_sums(self, fs):
        # benchmarks/e2e/workloads.py::store_counters adds these three;
        # staged_rows survives only for it and is always 0.
        fs.gather(np.array([0, 1, 530]))
        assert fs.hot_hits + fs.staged_rows + fs.disk_rows == 3
        assert fs.staged_rows == 0

    def test_bytes_read_tracks_disk_rows(self, fs):
        cold = np.array([530, 531, 532])  # low ids are the hubs in cora
        before = fs.bytes_read
        fs.gather(cold)
        read = fs.bytes_read - before
        assert read == fs.disk_rows * fs.row_bytes or read > 0


class TestHostBudget:
    def test_hot_cache_shrinks_to_budget(self, cora_store):
        budget = 30 * 64 * 4 + 541 * 4  # 30 rows + slot table
        fs = FeatureStore(
            cora_store, hot_cache_bytes=10**9, host_budget_bytes=budget
        )
        assert fs.hot_rows <= 30
        assert fs.resident_bytes <= budget

    def test_peak_tracks_transients(self, fs):
        fs.gather(np.arange(100))
        assert fs.peak_resident_bytes >= fs.resident_bytes + 100 * fs.row_bytes


class TestOpenKnobs:
    def test_open_store_dataset_passes_knobs(self, cora_store):
        ds = open_store_dataset(
            cora_store, hot_cache_bytes=10 * 64 * 4, host_budget_bytes=10**6
        )
        assert isinstance(ds.features, FeatureStore)
        assert ds.features.hot_rows == 10
        assert ds.features.host_budget_bytes == 10**6
