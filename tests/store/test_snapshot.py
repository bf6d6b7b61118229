"""FeatureStoreSnapshot: bitwise reads beside a live training store."""

import sys
import threading

import numpy as np
import pytest

from repro.analysis.race import RaceSentinel
from repro.store import FeatureStore


@pytest.fixture()
def fs(cora_store):
    store = FeatureStore(cora_store, hot_cache_bytes=64 * 1024)
    yield store
    store.close()


class TestBitwiseParity:
    def test_matches_store_gather(self, fs, cora):
        ids = np.array([0, 3, 7, 63, 64, 65, 120])
        snapshot = fs.read_snapshot()
        np.testing.assert_array_equal(
            snapshot.gather(ids), cora.features[ids]
        )
        np.testing.assert_array_equal(snapshot.gather(ids), fs.gather(ids))

    def test_hot_and_cold_rows_agree(self, fs, cora):
        # Warm the hot cache through the store, then read the same rows
        # (and never-touched ones) through a fresh snapshot.
        warm = np.arange(32)
        fs.gather(warm)
        snapshot = fs.read_snapshot()
        cold = np.arange(100, 132)
        np.testing.assert_array_equal(
            snapshot.gather(warm), cora.features[warm]
        )
        np.testing.assert_array_equal(
            snapshot.gather(cold), cora.features[cold]
        )
        assert snapshot.hot_hits > 0

    def test_ndarray_style_indexing(self, fs, cora):
        snapshot = fs.read_snapshot()
        np.testing.assert_array_equal(snapshot[5], cora.features[5])
        np.testing.assert_array_equal(snapshot[2:6], cora.features[2:6])
        assert len(snapshot) == cora.features.shape[0]
        assert snapshot.shape == cora.features.shape

    def test_survives_store_close(self, cora_store, cora):
        store = FeatureStore(cora_store, hot_cache_bytes=0)
        snapshot = store.read_snapshot()
        store.close()
        ids = np.array([1, 2, 3])
        np.testing.assert_array_equal(
            snapshot.gather(ids), cora.features[ids]
        )


class TestConcurrentWithTrainingGather:
    def test_serve_gathers_never_trip_the_training_store(
        self, cora_store, cora
    ):
        """Snapshot reads run beside a second thread gathering from the
        store itself: the store's RaceSentinel must stay silent and the
        snapshot's traffic must stay off the store's books."""
        fs = FeatureStore(cora_store, hot_cache_bytes=0)
        sets = [np.sort(np.arange(i, i + 24)) for i in range(0, 96, 24)]
        snapshot = fs.read_snapshot()
        ids = np.array([5, 50, 77, 110])
        errors = []

        def guarded(loop):
            def run():
                try:
                    loop()
                except Exception as exc:  # surfaced to the main thread
                    errors.append(exc)

            return threading.Thread(target=run)

        def serve_loop():
            for _ in range(50):
                np.testing.assert_array_equal(
                    snapshot.gather(ids), cora.features[ids]
                )

        def gather_loop():
            for _ in range(10):
                for group in sets:
                    np.testing.assert_array_equal(
                        fs.gather(group), cora.features[group]
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside gather
        try:
            with RaceSentinel(fs) as sentinel:
                threads = [guarded(serve_loop), guarded(gather_loop)]
                for thread in threads:
                    thread.start()
                for group in sets:
                    np.testing.assert_array_equal(
                        fs.gather(group), cora.features[group]
                    )
                for thread in threads:
                    thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sentinel.violations == []
        # Both store-side gatherers are on the store's counters; the
        # snapshot's rows are on its own.
        assert fs.gathers == 11 * len(sets)
        assert fs.disk_rows == 11 * sum(s.size for s in sets)
        assert snapshot.rows_served == 50 * ids.size
        fs.close()
