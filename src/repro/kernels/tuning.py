"""Kernel autotuner: per-host dense-vs-CSR calibration for dispatch.

The fused backend's hybrid dispatch needs one number per bucket shape:
below how many elements of work (``n_edges * feat_dim``) does the dense
gather beat the CSR operator?  The shipped default
(:data:`repro.kernels.fused.DENSE_FALLBACK_ELEMENTS`) was measured on
one machine; this module re-measures it on *this* host and caches the
result in a calibration file the :class:`~repro.kernels.fused.
FusedBackend` loads at construction.

File contract (mirrors the store manifests, docs/kernels.md):

* schema-versioned JSON, written atomically
  (:func:`repro.atomic.atomic_write`) with a CRC32 of the canonical
  payload so a torn write is detected, never half-trusted;
* keyed by a host fingerprint (platform + CPU count + numpy) and the
  kernel backend version — a file tuned on another machine, or against
  an older fused kernel, is *stale* and ignored;
* every degraded load path (missing file, stale schema, corrupt CRC,
  host mismatch, path is a directory) falls back to the shipped default
  crossover with a single :class:`CalibrationWarning` — dispatch never
  crashes because tuning state is bad.

The calibration stores crossovers per ``(dtype, feat-dim band)`` —
bands are power-of-two feature-width buckets, queried by nearest
measured band — plus the minimum per-bucket work below which threaded
CSR execution is not worth the pool dispatch overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.atomic import atomic_write
from repro.errors import ReproError

__all__ = [
    "BACKEND_VERSION",
    "Calibration",
    "CalibrationError",
    "CalibrationWarning",
    "SCHEMA_VERSION",
    "default_calibration_path",
    "host_fingerprint",
    "load_calibration",
    "load_for_dispatch",
    "save_calibration",
    "tune_calibration",
]

#: Calibration file schema version; bump on incompatible layout changes.
SCHEMA_VERSION = 1

#: Version of the fused kernel implementation a calibration was measured
#: against.  Bump whenever the dense/CSR cost balance changes materially
#: (e.g. a rewritten operator assembly) so old files go stale instead of
#: mis-steering dispatch.
BACKEND_VERSION = 2

#: Fallback minimum per-bucket work (``n_edges * feat_dim``) for the
#: threaded CSR path when no calibration provides a measured value:
#: below this the pool dispatch overhead dominates the matmul.
THREAD_MIN_WORK_DEFAULT = 1 << 15

_MAGIC = "repro-kernel-calibration"


class CalibrationError(ReproError):
    """A calibration file could not be read or failed validation."""


class CalibrationWarning(UserWarning):
    """Calibration unusable; dispatch degraded to the default crossover."""


def default_calibration_path() -> Path:
    """Per-host calibration location (override: ``REPRO_KERNEL_CALIBRATION``)."""
    env = os.environ.get("REPRO_KERNEL_CALIBRATION")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "kernel_calibration.json"


def host_fingerprint() -> str:
    """Short stable id of the hardware/software the tuner measured on."""
    parts = (
        platform.system(),
        platform.machine(),
        platform.processor(),
        str(os.cpu_count()),
        platform.python_version(),
        np.__version__,
    )
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def _feat_band(feat_dim: int) -> int:
    """Power-of-two band a feature width falls into (8 -> 8, 24 -> 32)."""
    if feat_dim < 1:
        raise CalibrationError(f"feat_dim must be positive, got {feat_dim}")
    return 1 << max(0, int(feat_dim - 1).bit_length())


@dataclass
class Calibration:
    """Measured dispatch thresholds for one host + backend version.

    Attributes:
        host: :func:`host_fingerprint` of the measuring machine.
        backend_version: fused-kernel version the grid ran against.
        crossovers: ``dtype name -> {feat band -> elements}``; a bucket
            whose ``n_edges * feat_dim`` is below the threshold takes
            the dense path.
        thread_min_work: minimum per-bucket work for the threaded CSR
            path (pool dispatch never amortizes below it).
        created_unix: wall-clock time the tuner ran (informational).
        source: path the calibration was loaded from, if any.
    """

    host: str
    backend_version: int = BACKEND_VERSION
    crossovers: dict[str, dict[int, int]] = field(default_factory=dict)
    thread_min_work: int = THREAD_MIN_WORK_DEFAULT
    created_unix: float | None = None
    source: str | None = None

    # ------------------------------------------------------------------
    def crossover_for(self, dtype, feat_dim: int) -> int | None:
        """Calibrated dense/CSR crossover for ``(dtype, feat_dim)``.

        Returns ``None`` when the dtype was never measured (callers fall
        back to the shipped default); otherwise the nearest measured
        feature band's threshold.
        """
        table = self.crossovers.get(np.dtype(dtype).name)
        if not table:
            return None
        band = _feat_band(feat_dim)
        if band in table:
            return table[band]
        nearest = min(
            table, key=lambda b: abs(math.log2(b) - math.log2(band))
        )
        return table[nearest]

    # -- serialization -------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {
            "magic": _MAGIC,
            "schema_version": SCHEMA_VERSION,
            "host": self.host,
            "backend_version": self.backend_version,
            "created_unix": self.created_unix,
            "thread_min_work": int(self.thread_min_work),
            "crossovers": {
                dtype: {str(band): int(v) for band, v in table.items()}
                for dtype, table in self.crossovers.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Calibration":
        crossovers = {
            str(dtype): {
                int(band): int(v) for band, v in table.items()
            }
            for dtype, table in dict(payload["crossovers"]).items()
        }
        return cls(
            host=str(payload["host"]),
            backend_version=int(payload["backend_version"]),
            crossovers=crossovers,
            thread_min_work=int(payload["thread_min_work"]),
            created_unix=payload.get("created_unix"),
        )


def _payload_crc(payload: dict[str, Any]) -> int:
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return zlib.crc32(canonical)


def save_calibration(calibration: Calibration, path: str | Path) -> Path:
    """Atomically write ``calibration`` (CRC computed last)."""
    path = Path(path).expanduser()
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = calibration.to_payload()
    payload["crc32"] = _payload_crc(
        {k: v for k, v in payload.items() if k != "crc32"}
    )
    with atomic_write(path) as tmp:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_calibration(
    path: str | Path, *, expected_host: str | None = None
) -> Calibration:
    """Read and fully validate a calibration file.

    Raises :class:`CalibrationError` naming the path on any problem:
    missing file, directory, malformed JSON, wrong magic/schema/backend
    version, CRC mismatch, or (when ``expected_host`` is given) a host
    fingerprint measured on a different machine.
    """
    path = Path(path).expanduser()
    if path.is_dir():
        raise CalibrationError(
            f"calibration path is a directory, not a file: {path}"
        )
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise CalibrationError(f"calibration file not found: {path}")
    except OSError as exc:
        raise CalibrationError(
            f"cannot read calibration file {path}: {exc}"
        )
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CalibrationError(
            f"calibration file {path} is not valid JSON: {exc}"
        )
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise CalibrationError(
            f"calibration file {path} has no {_MAGIC!r} magic"
        )
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise CalibrationError(
            f"calibration file {path} has stale schema version "
            f"{payload.get('schema_version')!r} "
            f"(expected {SCHEMA_VERSION}); re-run "
            f"`repro bench kernels --tune`"
        )
    stored_crc = payload.get("crc32")
    body = {k: v for k, v in payload.items() if k != "crc32"}
    if stored_crc != _payload_crc(body):
        raise CalibrationError(
            f"calibration file {path} is corrupt (CRC mismatch); "
            f"re-run `repro bench kernels --tune`"
        )
    try:
        calibration = Calibration.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CalibrationError(
            f"calibration file {path} has a malformed field: {exc}"
        )
    if payload.get("backend_version") != BACKEND_VERSION:
        raise CalibrationError(
            f"calibration file {path} was tuned against kernel backend "
            f"version {payload.get('backend_version')!r} "
            f"(current {BACKEND_VERSION}); re-run "
            f"`repro bench kernels --tune`"
        )
    if expected_host is not None and calibration.host != expected_host:
        raise CalibrationError(
            f"calibration file {path} was tuned on host "
            f"{calibration.host!r}, not this host ({expected_host!r}); "
            f"re-run `repro bench kernels --tune`"
        )
    calibration.source = str(path)
    return calibration


def load_for_dispatch(
    path: str | Path | None = None, *, explicit: bool = False
) -> tuple[Calibration | None, str]:
    """Best-effort load for backend construction: never raises.

    Returns ``(calibration, status)`` with status one of ``"loaded"``,
    ``"miss"`` (no file at the resolved path) and ``"stale"`` (a file
    exists but failed validation: schema/backend/host mismatch, corrupt
    CRC, directory, unreadable).  Degraded paths emit one
    :class:`CalibrationWarning`; an implicit default-path miss is
    silent — an untuned host is the normal state, not a problem.
    """
    resolved = Path(path).expanduser() if path is not None else (
        default_calibration_path()
    )
    if not resolved.exists():
        if explicit:
            warnings.warn(
                f"calibration file not found: {resolved}; using the "
                f"default dense/CSR crossover",
                CalibrationWarning,
                stacklevel=2,
            )
        return None, "miss"
    try:
        return (
            load_calibration(resolved, expected_host=host_fingerprint()),
            "loaded",
        )
    except CalibrationError as exc:
        warnings.warn(
            f"{exc}; using the default dense/CSR crossover",
            CalibrationWarning,
            stacklevel=2,
        )
        return None, "stale"


# ----------------------------------------------------------------------
# the tuner
# ----------------------------------------------------------------------


def _time_reduce(backend, workload, repeats: int) -> float:
    """Best-of-``repeats`` wall of one sum forward+backward (s)."""
    from repro.kernels.dispatch import use_kernel_backend
    from repro.tensor import Tensor

    best = math.inf
    for _ in range(repeats + 1):  # first iteration doubles as warmup
        src = Tensor(workload.feats, requires_grad=True)
        start = time.perf_counter()
        with use_kernel_backend(backend):
            backend.begin_group()
            try:
                out = backend.bucket_reduce(
                    workload.block, workload.bucket, src, "sum"
                )
                out.backward(np.ones(out.shape, dtype=out.dtype))
            finally:
                backend.end_group()
        best = min(best, time.perf_counter() - start)
    return best


def _crossover_ladder(
    feat_dim: int, degree: int, max_elements: int
) -> list[int]:
    """Row counts whose work spans ~[2k, max_elements] geometrically."""
    rows: list[int] = []
    work = 2048
    while work <= max_elements:
        rows.append(max(8, work // (degree * feat_dim)))
        work *= 2
    return sorted(set(rows))


def tune_calibration(
    *,
    feat_dims: Iterable[int] = (8, 32, 64),
    dtypes: Iterable[str] = ("float32",),
    degree: int = 8,
    repeats: int = 2,
    seed: int = 0,
    n_threads: int = 0,
    max_elements: int = 1 << 18,
) -> Calibration:
    """Microbenchmark dense vs CSR across bucket shapes on this host.

    For each ``(dtype, feat band)`` the tuner walks a geometric ladder
    of bucket sizes, timing the always-dense and always-CSR fused paths,
    and records the geometric mean of the bracketing work sizes as the
    crossover (the shipped default when one path wins everywhere).
    With ``n_threads >= 2`` it also measures the smallest work where
    the threaded CSR path beats serial, recording it as
    ``thread_min_work``.
    """
    from repro.bench.kernels import make_cutoff_bucket_workload
    from repro.kernels.fused import DENSE_FALLBACK_ELEMENTS, FusedBackend

    crossovers: dict[str, dict[int, int]] = {}
    for dtype in dtypes:
        dtype_name = np.dtype(dtype).name
        bands: dict[int, int] = {}
        for feat_dim in feat_dims:
            band = _feat_band(feat_dim)
            below = 0  # largest work where dense won
            above = None  # smallest work where CSR won
            for n_rows in _crossover_ladder(
                feat_dim, degree, max_elements
            ):
                workload = make_cutoff_bucket_workload(
                    n_rows=n_rows,
                    degree=degree,
                    feat_dim=feat_dim,
                    seed=seed,
                )
                if dtype_name != workload.feats.dtype.name:
                    workload.feats = workload.feats.astype(dtype_name)
                work = workload.bucket.n_edges * feat_dim
                dense_wall = _time_reduce(
                    FusedBackend(dense_fallback_elements=1 << 62),
                    workload,
                    repeats,
                )
                csr_wall = _time_reduce(
                    FusedBackend(dense_fallback_elements=0),
                    workload,
                    repeats,
                )
                if csr_wall < dense_wall:
                    above = work
                    break
                below = work
            if above is None:
                # CSR never won on the measured ladder: keep routing
                # everything measured (and below) dense.
                bands[band] = max(below * 2, DENSE_FALLBACK_ELEMENTS)
            elif below == 0:
                # CSR won even the smallest shape measured.
                bands[band] = above // 2
            else:
                bands[band] = int(math.sqrt(below * above))
        crossovers[dtype_name] = bands

    thread_min_work = THREAD_MIN_WORK_DEFAULT
    if n_threads >= 2:
        thread_min_work = _tune_thread_min_work(
            n_threads=n_threads,
            degree=degree,
            repeats=repeats,
            seed=seed,
            max_elements=max_elements,
        )
    return Calibration(
        host=host_fingerprint(),
        backend_version=BACKEND_VERSION,
        crossovers=crossovers,
        thread_min_work=thread_min_work,
        created_unix=time.time(),
    )


def _tune_thread_min_work(
    *,
    n_threads: int,
    degree: int,
    repeats: int,
    seed: int,
    max_elements: int,
    feat_dim: int = 64,
) -> int:
    """Smallest measured work where threaded CSR beats serial.

    Returns :data:`THREAD_MIN_WORK_DEFAULT` when threading never wins
    on the measured ladder (e.g. a single-core host) — callers that
    force threading anyway still get bit-for-bit results, just no
    speedup.
    """
    from repro.bench.kernels import make_cutoff_bucket_workload
    from repro.kernels.fused import FusedBackend

    for n_rows in _crossover_ladder(feat_dim, degree, max_elements):
        workload = make_cutoff_bucket_workload(
            n_rows=n_rows, degree=degree, feat_dim=feat_dim, seed=seed
        )
        work = workload.bucket.n_edges * feat_dim
        serial = _time_reduce(
            FusedBackend(dense_fallback_elements=0), workload, repeats
        )
        threaded_backend = FusedBackend(
            dense_fallback_elements=0,
            n_threads=n_threads,
            thread_min_work=0,
        )
        try:
            threaded = _time_reduce(threaded_backend, workload, repeats)
        finally:
            threaded_backend.close()
        if threaded < serial:
            return work
    return THREAD_MIN_WORK_DEFAULT
