"""Tests for the cross-micro-batch feature cache."""

import numpy as np
import pytest

from repro.device import SimulatedGPU
from repro.device.feature_cache import FeatureCache
from repro.errors import DeviceError, DeviceOutOfMemoryError


def make_cache(capacity_rows=10, feat_bytes=256, device_capacity=10**9):
    device = SimulatedGPU(capacity_bytes=device_capacity)
    cache = FeatureCache(
        device, feat_bytes, capacity_bytes=capacity_rows * feat_bytes
    )
    return device, cache


class TestFeatureCache:
    def test_first_load_all_misses(self):
        device, cache = make_cache()
        seconds = cache.load(np.arange(5))
        assert seconds > 0
        assert cache.misses == 5
        assert cache.hits == 0
        assert cache.resident_rows == 5

    def test_repeat_load_all_hits(self):
        _, cache = make_cache()
        cache.load(np.arange(5))
        seconds = cache.load(np.arange(5))
        assert seconds == 0.0
        assert cache.hits == 5
        assert cache.hit_rate == 0.5

    def test_partial_overlap(self):
        device, cache = make_cache()
        cache.load(np.arange(5))
        before = device.bytes_loaded
        cache.load(np.arange(3, 8))
        transferred = device.bytes_loaded - before
        assert transferred == 3 * 256  # only nodes 5, 6, 7

    def test_lru_eviction(self):
        _, cache = make_cache(capacity_rows=3)
        cache.load(np.array([1, 2, 3]))
        cache.load(np.array([4]))  # evicts node 1
        assert cache.resident_rows == 3
        seconds = cache.load(np.array([1]))
        assert seconds > 0  # node 1 was evicted -> miss

    def test_lru_recency_update(self):
        _, cache = make_cache(capacity_rows=3)
        cache.load(np.array([1, 2, 3]))
        cache.load(np.array([1]))  # refresh node 1
        cache.load(np.array([4]))  # evicts node 2, not node 1
        assert cache.load(np.array([1])) == 0.0

    def test_device_ledger_charged(self):
        device, cache = make_cache(capacity_rows=10)
        cache.load(np.arange(4))
        assert device.live_bytes == 4 * 256
        cache.clear()
        assert device.live_bytes == 0

    def test_cache_can_cause_oom(self):
        device = SimulatedGPU(capacity_bytes=1000)
        cache = FeatureCache(device, 256, capacity_bytes=10 * 256)
        with pytest.raises(DeviceOutOfMemoryError):
            cache.load(np.arange(10))  # 2560 B > 1000 B device

    def test_close_releases(self):
        device, cache = make_cache()
        cache.load(np.arange(3))
        cache.close()
        assert device.live_bytes == 0

    def test_invalid_args_raise(self):
        device = SimulatedGPU(capacity_bytes=10**6)
        with pytest.raises(DeviceError):
            FeatureCache(device, 0, 100)
        with pytest.raises(DeviceError):
            FeatureCache(device, 256, 100)

    def test_transfer_savings_on_redundant_micro_batches(self):
        # The motivating scenario: consecutive micro-batches sharing
        # half their inputs halve the transferred bytes.
        device_nocache = SimulatedGPU(capacity_bytes=10**9)
        feat = 512
        batches = [np.arange(0, 100), np.arange(50, 150), np.arange(100, 200)]
        for b in batches:
            device_nocache.load(b.size * feat)

        device_cache, cache = make_cache(
            capacity_rows=500, feat_bytes=feat
        )
        for b in batches:
            cache.load(b)
        assert device_cache.bytes_loaded < device_nocache.bytes_loaded
        assert cache.hit_rate > 0.2


class TestStoreBackedCache:
    """Device cache fronting an out-of-core FeatureStore.

    The two caches are independent tiers: the device cache keeps the
    recently used rows, the store's hot-node cache holds the popularity
    head on the host.  A row can be resident on the device yet dropped
    by the store's hot cache — the store must still serve its bytes
    from shards, bit-for-bit.
    """

    @pytest.fixture()
    def store_and_ref(self, tmp_path):
        from repro.datasets import load
        from repro.store import FeatureStore, build_store

        dataset = load("cora", scale=0.1, seed=0)
        root = tmp_path / "cora.store"
        build_store(dataset, root, shard_rows=32)
        # Hot cache holds only the 8 most popular rows.
        store = FeatureStore(root, hot_cache_bytes=8 * dataset.feat_dim * 4)
        return store, np.asarray(dataset.features)

    def test_row_dropped_from_hot_cache_still_correct(self, store_and_ref):
        store, ref = store_and_ref
        hot = int(np.flatnonzero(store._hot_slot >= 0)[0])
        device, cache = make_cache(
            capacity_rows=4, feat_bytes=store.row_bytes
        )
        cache.load(np.array([hot]))
        # The host hot cache is torn down (e.g. budget shrink); the
        # device row's source of truth falls back to shards.
        store.close()
        row = store.gather(np.array([hot]))
        np.testing.assert_array_equal(row[0], ref[hot])
        assert hot in cache._resident  # device tier unaffected

    def test_tiers_count_independently(self, store_and_ref):
        store, ref = store_and_ref
        hot = int(np.flatnonzero(store._hot_slot >= 0)[0])
        device, cache = make_cache(
            capacity_rows=8, feat_bytes=store.row_bytes
        )
        cache.load(np.array([hot]))
        cache.load(np.array([hot]))
        assert cache.hits == 1 and cache.misses == 1
        store.gather(np.array([hot]))
        assert store.hot_hits == 1
        np.testing.assert_array_equal(
            store.gather(np.array([hot]))[0], ref[hot]
        )
