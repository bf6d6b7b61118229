"""Checkpointing: save/restore model parameters and training state."""

from __future__ import annotations

import json
import zipfile
from pathlib import Path

import numpy as np

from repro.atomic import atomic_write
from repro.errors import ReproError
from repro.nn.module import Module


def save_checkpoint(
    path: str | Path,
    model: Module,
    *,
    metadata: dict | None = None,
) -> None:
    """Write a model's parameters (plus JSON metadata) as an ``.npz`` archive.

    The archive lands at exactly ``path`` (no suffix is appended) and
    replaces a previous checkpoint atomically, so a crash mid-write
    leaves the previous one loadable.

    Args:
        path: target file; parent directories are created.
        model: the module whose :meth:`state_dict` is saved.
        metadata: JSON-serializable extras (epoch, loss, config, ...).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = model.state_dict()
    payload = dict(state)
    payload["__metadata__"] = np.frombuffer(
        json.dumps(metadata or {}).encode(), dtype=np.uint8
    )
    with atomic_write(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **payload)


def load_checkpoint(
    path: str | Path, model: Module
) -> dict:
    """Restore parameters saved by :func:`save_checkpoint`.

    Returns:
        The metadata dict stored alongside the parameters.

    Raises:
        ReproError: naming ``path`` when the file is missing, truncated
            or not a checkpoint, or when shapes mismatch the model.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"checkpoint not found: {path}")
    try:
        with np.load(path) as archive:
            metadata_raw = archive["__metadata__"].tobytes().decode()
            state = {
                key: archive[key]
                for key in archive.files
                if key != "__metadata__"
            }
    except (
        zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError
    ) as exc:
        raise ReproError(
            f"{path}: not a readable checkpoint ({exc})"
        ) from exc
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise ReproError(
            f"{path}: checkpoint does not match model: {exc}"
        ) from exc
    return json.loads(metadata_raw)
