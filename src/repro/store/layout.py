"""On-disk layout of a dataset store.

A *store* is a directory holding one dataset in a chunked, mmap-friendly
format::

    <name>.store/
        manifest.json            # versioned header (written last)
        graph.indptr.npy         # CSR row pointers, memory-mapped
        graph.indices.npy        # CSR neighbor ids, memory-mapped
        labels.npy               # per-node class labels (loaded eagerly)
        train_nodes.npy          # split node ids (loaded eagerly)
        val_nodes.npy
        test_nodes.npy
        hot_order.npy            # node ids, descending degree
        features/shard-00000.npy # row shard 0: rows [0, shard_rows)
        features/shard-00001.npy # row shard 1: rows [shard_rows, 2*...)
        ...

Every array is a plain ``.npy`` file so ``numpy.load(..., mmap_mode="r")``
maps it without reading it; the manifest records dtype/shape plus a CRC32
per file so a torn or bit-rotted store is detected instead of half-read.
The manifest is written *last* (and atomically), so a directory with a
manifest is a complete store by construction.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write
from repro.errors import DatasetError

#: File that marks a directory as a store (written last during a build).
MANIFEST_NAME = "manifest.json"

#: Identifies the file format; readers reject anything else.
STORE_MAGIC = "repro-store"

#: Current layout version; bumped on incompatible changes.
STORE_VERSION = 1

#: Default feature rows per shard (~1 MiB of float32 x 64 dims).
DEFAULT_SHARD_ROWS = 4096

_CHUNK = 1 << 20


def file_checksum(path: str | Path) -> int:
    """Streaming CRC32 of a file (never materializes it)."""
    crc = 0
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_CHUNK)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


def is_store_path(path: str | Path) -> bool:
    """True when ``path`` is a directory containing a store manifest."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


@dataclass
class StoreManifest:
    """Parsed, validated ``manifest.json``.

    Attributes:
        spec: the dataset-spec metadata dict (same keys ``save_dataset``
            persists: generator recipe, paper stats, splits metadata).
        n_nodes / n_edges / feat_dim: dataset dimensions.
        feature_dtype: numpy dtype string of the feature rows.
        shard_rows: feature rows per shard file.
        n_shards: number of feature shard files.
        files: relpath -> {"bytes": int, "crc32": int} for every data
            file in the store.
    """

    spec: dict
    n_nodes: int
    n_edges: int
    feat_dim: int
    feature_dtype: str
    shard_rows: int
    n_shards: int
    files: dict[str, dict] = field(default_factory=dict)
    version: int = STORE_VERSION

    def to_json(self) -> str:
        return json.dumps(
            {
                "magic": STORE_MAGIC,
                "version": self.version,
                "spec": self.spec,
                "n_nodes": self.n_nodes,
                "n_edges": self.n_edges,
                "feat_dim": self.feat_dim,
                "feature_dtype": self.feature_dtype,
                "shard_rows": self.shard_rows,
                "n_shards": self.n_shards,
                "files": self.files,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, *, source: str = "<memory>") -> "StoreManifest":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{source}: corrupt store manifest: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("magic") != STORE_MAGIC:
            raise DatasetError(f"{source}: not a {STORE_MAGIC} manifest")
        version = raw.get("version")
        if version != STORE_VERSION:
            raise DatasetError(
                f"{source}: unsupported store version {version!r} "
                f"(this build reads version {STORE_VERSION})"
            )
        try:
            return cls(
                spec=raw["spec"],
                n_nodes=int(raw["n_nodes"]),
                n_edges=int(raw["n_edges"]),
                feat_dim=int(raw["feat_dim"]),
                feature_dtype=str(raw["feature_dtype"]),
                shard_rows=int(raw["shard_rows"]),
                n_shards=int(raw["n_shards"]),
                files=dict(raw["files"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetError(
                f"{source}: store manifest is missing or has a malformed "
                f"field ({exc})"
            ) from exc


def write_manifest(root: str | Path, manifest: StoreManifest) -> None:
    """Atomically write ``manifest.json`` under ``root``."""
    with atomic_write(Path(root) / MANIFEST_NAME) as tmp, open(
        tmp, "wb"
    ) as fh:
        fh.write((manifest.to_json() + "\n").encode())
        fh.flush()
        os.fsync(fh.fileno())


def read_manifest(root: str | Path) -> StoreManifest:
    """Read and validate the manifest of the store at ``root``."""
    root = Path(root)
    path = root / MANIFEST_NAME
    if not root.is_dir() or not path.is_file():
        raise DatasetError(f"not a dataset store (no {MANIFEST_NAME}): {root}")
    return StoreManifest.from_json(
        path.read_text(encoding="utf-8"), source=str(path)
    )


def verify_files(root: str | Path, manifest: StoreManifest) -> None:
    """Check size + CRC32 of every manifest-listed file.

    Raises :class:`DatasetError` naming the first mismatching file.
    Reading every byte defeats the point of mmap for huge stores, so
    this is opt-in (``open_store_dataset(..., verify=True)`` and
    ``repro store info --verify``).
    """
    root = Path(root)
    for rel in sorted(manifest.files):
        meta = manifest.files[rel]
        path = root / rel
        if not path.is_file():
            raise DatasetError(f"store file missing: {path}")
        size = path.stat().st_size
        if size != int(meta["bytes"]):
            raise DatasetError(
                f"store file truncated: {path} "
                f"({size} bytes, manifest says {meta['bytes']})"
            )
        crc = file_checksum(path)
        if crc != int(meta["crc32"]):
            raise DatasetError(
                f"store file corrupt (CRC mismatch): {path}"
            )


def load_mapped(root: Path, rel: str, manifest: StoreManifest) -> np.ndarray:
    """Memory-map one manifest-listed ``.npy`` array (read-only)."""
    path = root / rel
    if rel not in manifest.files:
        raise DatasetError(f"file not listed in store manifest: {rel}")
    if not path.is_file():
        raise DatasetError(f"store file missing: {path}")
    if path.stat().st_size != int(manifest.files[rel]["bytes"]):
        raise DatasetError(
            f"store file truncated: {path} (size differs from manifest)"
        )
    try:
        return np.load(path, mmap_mode="r")
    except (ValueError, OSError) as exc:
        raise DatasetError(f"cannot map store file {path}: {exc}") from exc
