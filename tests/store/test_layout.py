"""Tests for the store layout: manifest, checksums, atomicity."""

import json

import numpy as np
import pytest

from repro.atomic import atomic_write
from repro.errors import DatasetError
from repro.store import (
    MANIFEST_NAME,
    STORE_VERSION,
    StoreManifest,
    build_store,
    is_store_path,
    read_manifest,
    store_info,
    verify_files,
)
from repro.store.layout import file_checksum


class TestManifest:
    def test_roundtrip(self, cora_store):
        manifest = read_manifest(cora_store)
        again = StoreManifest.from_json(manifest.to_json())
        assert again == manifest
        assert again.version == STORE_VERSION

    def test_lists_every_file(self, cora_store):
        manifest = read_manifest(cora_store)
        on_disk = {
            str(p.relative_to(cora_store))
            for p in cora_store.rglob("*")
            if p.is_file() and p.name != MANIFEST_NAME
        }
        assert set(manifest.files) == on_disk

    def test_rejects_wrong_magic(self):
        with pytest.raises(DatasetError, match="manifest"):
            StoreManifest.from_json(json.dumps({"magic": "parquet"}))

    def test_rejects_future_version(self, cora_store):
        path = cora_store / MANIFEST_NAME
        raw = json.loads(path.read_text())
        raw["version"] = STORE_VERSION + 1
        path.write_text(json.dumps(raw))
        with pytest.raises(DatasetError, match="version"):
            read_manifest(cora_store)

    def test_rejects_garbage_json(self, cora_store):
        (cora_store / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DatasetError, match="corrupt"):
            read_manifest(cora_store)

    def test_non_store_dir(self, tmp_path):
        with pytest.raises(DatasetError, match="manifest"):
            read_manifest(tmp_path)
        assert not is_store_path(tmp_path)

    def test_is_store_path(self, cora_store, tmp_path):
        assert is_store_path(cora_store)
        assert not is_store_path(tmp_path / "never-created")


class TestChecksums:
    def test_verify_passes_on_fresh_build(self, cora_store):
        verify_files(cora_store, read_manifest(cora_store))

    def test_detects_bitflip(self, cora_store):
        victim = cora_store / "labels.npy"
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="CRC"):
            verify_files(cora_store, read_manifest(cora_store))

    def test_detects_truncation(self, cora_store):
        victim = cora_store / "features" / "shard-00000.npy"
        victim.write_bytes(victim.read_bytes()[:-10])
        with pytest.raises(DatasetError, match="truncated"):
            verify_files(cora_store, read_manifest(cora_store))

    def test_detects_missing_file(self, cora_store):
        (cora_store / "train_nodes.npy").unlink()
        with pytest.raises(DatasetError, match="missing"):
            verify_files(cora_store, read_manifest(cora_store))

    def test_file_checksum_streams(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"abc" * 1000)
        import zlib

        assert file_checksum(path) == zlib.crc32(b"abc" * 1000)


class TestBuild:
    def test_refuses_overwrite_without_force(self, cora_store, cora):
        with pytest.raises(DatasetError, match="overwrite"):
            build_store(cora, cora_store)

    def test_overwrite_with_force(self, cora_store, cora):
        manifest = build_store(cora, cora_store, overwrite=True)
        assert manifest.n_nodes == cora.n_nodes
        verify_files(cora_store, read_manifest(cora_store))

    def test_bad_shard_rows(self, tmp_path, cora):
        with pytest.raises(DatasetError, match="shard_rows"):
            build_store(cora, tmp_path / "s", shard_rows=0)

    def test_no_temp_files_left(self, cora_store):
        assert not list(cora_store.rglob("*.tmp*"))

    def test_info(self, cora_store, cora):
        info = store_info(cora_store, verify=True)
        assert info["n_nodes"] == cora.n_nodes
        assert info["n_shards"] * 64 >= cora.n_nodes
        assert info["feature_bytes"] > 0
        assert info["verified"]


class TestAtomicWrite:
    @staticmethod
    def _save(path, array):
        with atomic_write(path) as tmp, open(tmp, "wb") as fh:
            np.save(fh, array)

    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "a.npy"
        self._save(path, np.arange(5))
        self._save(path, np.arange(9))
        np.testing.assert_array_equal(np.load(path), np.arange(9))
        assert not list(tmp_path.glob("*.tmp*"))

    def test_failed_write_keeps_previous_and_no_temp(self, tmp_path):
        path = tmp_path / "a.npy"
        self._save(path, np.arange(5))
        with pytest.raises(RuntimeError, match="torn"):
            with atomic_write(path) as tmp:
                tmp.write_bytes(b"half a payload")
                raise RuntimeError("torn")
        np.testing.assert_array_equal(np.load(path), np.arange(5))
        assert [f.name for f in tmp_path.iterdir()] == ["a.npy"]
