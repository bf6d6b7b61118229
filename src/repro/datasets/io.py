"""Dataset serialization: ``.npz`` archives and store-directory dispatch.

Generation of the largest stand-ins takes seconds; persisting them lets
benchmark runs, notebooks, and separate processes share one generated
instance (and pins the exact graph a result was produced on).

Two on-disk forms exist:

* a single ``.npz`` archive (:func:`save_dataset` / :func:`load_dataset`)
  — simple, loaded fully into RAM;
* a store directory (``repro store build``, :mod:`repro.store`) —
  chunked and memory-mapped, for graphs whose features outgrow RAM.

:func:`open_dataset` accepts either (or a catalog name) and dispatches,
so callers never need to care which form a path holds.

Saves are atomic: the archive is written to a temp file in the target
directory and renamed into place, so an interrupted save can never
leave a torn ``.npz`` behind for a later load to half-read.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write
from repro.datasets.catalog import Dataset, DatasetSpec, PaperStats
from repro.errors import DatasetError
from repro.graph.csr import CSRGraph


def save_dataset(path: str | Path, dataset: Dataset) -> None:
    """Write a dataset (graph, features, labels, split, spec) to disk.

    The write goes through :func:`repro.atomic.atomic_write`, so a crash
    mid-save leaves the previous file (or nothing) rather than a
    truncated archive.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    spec_json = json.dumps(
        {
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
    )
    with atomic_write(path) as tmp, open(tmp, "wb") as fh:
        np.savez_compressed(
            fh,
            indptr=dataset.graph.indptr,
            indices=dataset.graph.indices,
            features=np.asarray(dataset.features),
            labels=dataset.labels,
            train_nodes=dataset.train_nodes,
            val_nodes=dataset.val_nodes,
            test_nodes=dataset.test_nodes,
            spec=np.frombuffer(spec_json.encode(), dtype=np.uint8),
        )


def load_dataset(path: str | Path) -> Dataset:
    """Read a dataset saved by :func:`save_dataset`.

    Raises :class:`DatasetError` (naming the offending path) for a
    missing, truncated, corrupt, or foreign file — a torn download or
    interrupted copy surfaces as one clear error, not a deep traceback.
    """
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"dataset file not found: {path}")
    try:
        archive = np.load(path)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise DatasetError(
            f"{path} is not a readable dataset archive: {exc}"
        ) from exc
    with archive:
        try:
            meta = json.loads(archive["spec"].tobytes().decode())
            graph = CSRGraph(archive["indptr"], archive["indices"])
            features = archive["features"]
            labels = archive["labels"]
            train_nodes = archive["train_nodes"]
            val_nodes = archive["val_nodes"]
            test_nodes = archive["test_nodes"]
        except KeyError as exc:
            raise DatasetError(
                f"{path} is not a saved dataset (missing {exc})"
            ) from exc
        except (
            zipfile.BadZipFile,
            json.JSONDecodeError,
            ValueError,
            OSError,
            EOFError,
        ) as exc:
            raise DatasetError(
                f"{path} is corrupt or truncated: {exc}"
            ) from exc
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
    return Dataset(
        name=meta["dataset_name"],
        graph=graph,
        features=features,
        labels=labels,
        n_classes=meta["dataset_n_classes"],
        train_nodes=train_nodes,
        scale=meta["scale"],
        spec=spec,
        val_nodes=val_nodes,
        test_nodes=test_nodes,
    )


def open_dataset(
    source: str | Path,
    *,
    scale: float = 1.0,
    seed: int = 0,
    hot_cache_bytes: int | None = None,
    host_budget_bytes: int | None = None,
    verify: bool = False,
) -> Dataset:
    """Open a dataset from a store directory, an ``.npz``, or the catalog.

    Dispatch order: a directory holding a store manifest opens through
    :func:`repro.store.open_store_dataset` (mmap graph + out-of-core
    features); an existing file loads as an ``.npz`` archive; anything
    else is treated as a catalog name (``scale``/``seed`` apply only
    there — saved datasets pin their own).

    The cache/budget/verify knobs apply to store-backed datasets and are
    ignored for the in-memory forms.
    """
    path = Path(source)
    # Imported lazily: repro.store depends on this package's catalog.
    from repro.store import is_store_path, open_store_dataset

    if is_store_path(path):
        return open_store_dataset(
            path,
            hot_cache_bytes=hot_cache_bytes,
            host_budget_bytes=host_budget_bytes,
            verify=verify,
        )
    if path.is_dir():
        raise DatasetError(
            f"{path} is a directory but not a dataset store "
            f"(no manifest.json)"
        )
    if path.exists():
        return load_dataset(path)
    if path.suffix in (".npz", ".store") or os.sep in str(source):
        raise DatasetError(f"dataset file not found: {path}")
    from repro.datasets.catalog import load

    return load(str(source), scale=scale, seed=seed)
