"""Store construction: convert a dataset into the on-disk layout.

``build_store`` writes every array as an individually renamed-into-place
``.npy`` file, computes per-file CRC32s, and writes ``manifest.json``
last — so a directory either has a complete, checksummed store or no
manifest at all; there is no torn intermediate state a reader can
half-load.  ``open_store_dataset`` is the inverse: it assembles a
:class:`~repro.datasets.catalog.Dataset` whose graph is mmap-backed and
whose features are a :class:`~repro.store.feature_store.FeatureStore`.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write
from repro.config import INDEX_DTYPE
from repro.datasets.catalog import Dataset, DatasetSpec, PaperStats
from repro.errors import DatasetError
from repro.obs.trace import get_tracer
from repro.store.feature_store import (
    HOT_ORDER_FILE,
    FeatureStore,
    shard_name,
)
from repro.store.graph_store import INDICES_FILE, INDPTR_FILE, GraphStore
from repro.store.layout import (
    DEFAULT_SHARD_ROWS,
    StoreManifest,
    file_checksum,
    read_manifest,
    verify_files,
    write_manifest,
)

LABELS_FILE = "labels.npy"
SPLIT_FILES = {
    "train_nodes": "train_nodes.npy",
    "val_nodes": "val_nodes.npy",
    "test_nodes": "test_nodes.npy",
}


def _spec_meta(dataset: Dataset) -> dict:
    """The same spec payload ``save_dataset`` embeds in its ``.npz``."""
    return {
        "name": dataset.spec.name,
        "paper": asdict(dataset.spec.paper),
        "base_nodes": dataset.spec.base_nodes,
        "generator": dataset.spec.generator,
        "gen_params": dataset.spec.gen_params,
        "n_classes": dataset.spec.n_classes,
        "feat_dim": dataset.spec.feat_dim,
        "directed": dataset.spec.directed,
        "scale": dataset.scale,
        "dataset_name": dataset.name,
        "dataset_n_classes": dataset.n_classes,
    }


def build_store(
    dataset: Dataset,
    dest: str | Path,
    *,
    shard_rows: int = DEFAULT_SHARD_ROWS,
    overwrite: bool = False,
) -> StoreManifest:
    """Persist ``dataset`` as a store directory at ``dest``.

    Args:
        dataset: the in-memory dataset to convert.
        dest: target directory (created; must not already be a store
            unless ``overwrite``).
        shard_rows: feature rows per shard file.
        overwrite: replace an existing store at ``dest``.

    Returns:
        The written, validated manifest.
    """
    if shard_rows < 1:
        raise DatasetError(f"shard_rows must be >= 1, got {shard_rows}")
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        if not overwrite:
            raise DatasetError(
                f"refusing to overwrite non-empty directory {dest} "
                f"(pass overwrite/--force)"
            )
        shutil.rmtree(dest)
    (dest / "features").mkdir(parents=True, exist_ok=True)

    features = np.ascontiguousarray(dataset.features)
    if features.ndim != 2:
        raise DatasetError(
            f"{dest}: features must be 2-D, got shape {features.shape}"
        )
    n_nodes, feat_dim = features.shape
    if n_nodes != dataset.graph.n_nodes:
        raise DatasetError(
            f"{dest}: feature rows ({n_nodes}) must match graph nodes "
            f"({dataset.graph.n_nodes})"
        )

    files: dict[str, dict] = {}

    def _write(rel: str, array: np.ndarray) -> None:
        path = dest / rel
        with atomic_write(path) as tmp, open(tmp, "wb") as fh:
            np.save(fh, array)
        files[rel] = {
            "bytes": path.stat().st_size,
            "crc32": file_checksum(path),
        }

    with get_tracer().span(
        "store.build", {"n_nodes": int(n_nodes), "shard_rows": shard_rows}
    ):
        # Build-time dtype normalization of the in-memory source graph
        # (not a mapped store array) before the one-shot write to disk.
        _write(
            INDPTR_FILE,
            np.asarray(  # repro: noqa[memmap-copy] in-memory source
                dataset.graph.indptr, dtype=INDEX_DTYPE
            ),
        )
        _write(
            INDICES_FILE,
            np.asarray(  # repro: noqa[memmap-copy] in-memory source
                dataset.graph.indices, dtype=INDEX_DTYPE
            ),
        )
        _write(LABELS_FILE, np.asarray(dataset.labels))
        for attr, rel in SPLIT_FILES.items():
            _write(rel, np.asarray(getattr(dataset, attr), dtype=INDEX_DTYPE))
        # The hot cache wants the rows gathers actually hit: sampled
        # input cones land on nodes in proportion to how often they
        # appear in adjacency lists (== in-degree on symmetric graphs,
        # but NOT on directed citation graphs, where row length counts
        # references the other way).  Stable sort keeps the order (and
        # hence the store bytes) deterministic.
        popularity = np.bincount(
            np.asarray(dataset.graph.indices), minlength=int(n_nodes)
        )
        _write(
            HOT_ORDER_FILE,
            np.argsort(-popularity, kind="stable").astype(INDEX_DTYPE),
        )
        n_shards = max((n_nodes + shard_rows - 1) // shard_rows, 1)
        for shard in range(n_shards):
            lo = shard * shard_rows
            _write(shard_name(shard), features[lo : lo + shard_rows])

        manifest = StoreManifest(
            spec=_spec_meta(dataset),
            n_nodes=int(n_nodes),
            n_edges=int(dataset.graph.n_edges),
            feat_dim=int(feat_dim),
            feature_dtype=features.dtype.name,
            shard_rows=int(shard_rows),
            n_shards=int(n_shards),
            files=files,
        )
        write_manifest(dest, manifest)
    return manifest


def open_store_dataset(
    path: str | Path,
    *,
    hot_cache_bytes: int | None = None,
    host_budget_bytes: int | None = None,
    verify: bool = False,
) -> Dataset:
    """Open a store directory as a :class:`Dataset`.

    The graph arrays stay memory-mapped; the features are served by a
    :class:`FeatureStore` (see its docs for the cache/budget knobs);
    labels and splits — a few bytes per node — are loaded eagerly.

    Args:
        path: the store directory.
        hot_cache_bytes: hot-node cache budget (``None`` = default).
        host_budget_bytes: soft ceiling on resident feature bytes.
        verify: check every file's size and CRC32 before opening.
    """
    path = Path(path)
    manifest = read_manifest(path)
    if verify:
        verify_files(path, manifest)
    meta = manifest.spec
    try:
        spec = DatasetSpec(
            name=meta["name"],
            paper=PaperStats(**meta["paper"]),
            base_nodes=meta["base_nodes"],
            generator=meta["generator"],
            gen_params=meta["gen_params"],
            n_classes=meta["n_classes"],
            feat_dim=meta["feat_dim"],
            directed=meta["directed"],
        )
    except (KeyError, TypeError) as exc:
        raise DatasetError(
            f"{path}: store spec metadata is incomplete ({exc})"
        ) from exc
    graph = GraphStore(path, manifest).as_csr()
    features = FeatureStore(
        path,
        manifest,
        hot_cache_bytes=hot_cache_bytes,
        host_budget_bytes=host_budget_bytes,
    )

    def _load(rel: str) -> np.ndarray:
        return np.asarray(
            np.load(path / rel, mmap_mode=None, allow_pickle=False)
        )

    return Dataset(
        name=meta["dataset_name"],
        graph=graph,
        features=features,
        labels=_load(LABELS_FILE),
        n_classes=meta["dataset_n_classes"],
        train_nodes=_load(SPLIT_FILES["train_nodes"]),
        scale=meta["scale"],
        spec=spec,
        val_nodes=_load(SPLIT_FILES["val_nodes"]),
        test_nodes=_load(SPLIT_FILES["test_nodes"]),
    )


def store_info(path: str | Path, *, verify: bool = False) -> dict:
    """Summarize a store for ``repro store info`` (dict of fields)."""
    path = Path(path)
    manifest = read_manifest(path)
    if verify:
        verify_files(path, manifest)
    total_bytes = sum(int(f["bytes"]) for f in manifest.files.values())
    feature_bytes = sum(
        int(meta["bytes"])
        for rel, meta in manifest.files.items()
        if rel.startswith("features/")
    )
    return {
        "path": str(path),
        "dataset": manifest.spec.get("dataset_name", "?"),
        "scale": manifest.spec.get("scale", "?"),
        "n_nodes": manifest.n_nodes,
        "n_edges": manifest.n_edges,
        "feat_dim": manifest.feat_dim,
        "feature_dtype": manifest.feature_dtype,
        "shard_rows": manifest.shard_rows,
        "n_shards": manifest.n_shards,
        "n_files": len(manifest.files),
        "total_bytes": total_bytes,
        "feature_bytes": feature_bytes,
        "verified": bool(verify),
    }


def describe_store(info: dict) -> str:
    """Human-readable one-screen rendering of :func:`store_info`."""
    lines = [
        f"store: {info['path']}",
        f"  dataset: {info['dataset']} (scale={info['scale']})",
        f"  nodes: {info['n_nodes']:,}   edges: {info['n_edges']:,}",
        f"  features: {info['feat_dim']} dims, {info['feature_dtype']}, "
        f"{info['n_shards']} shard(s) x {info['shard_rows']} rows",
        f"  size: {info['total_bytes'] / 2**20:.2f} MiB total, "
        f"{info['feature_bytes'] / 2**20:.2f} MiB features, "
        f"{info['n_files']} files",
        f"  checksums: {'verified' if info['verified'] else 'not verified'}",
    ]
    return "\n".join(lines)


def _json_default(value):  # pragma: no cover - trivial
    raise TypeError(f"not JSON serializable: {value!r}")


def info_json(info: dict) -> str:
    return json.dumps(info, indent=2, sort_keys=True, default=_json_default)
