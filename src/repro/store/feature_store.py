"""Out-of-core feature matrix: row shards + hot-node cache.

The feature matrix is the piece of a GNN dataset that actually breaks
host RAM (features dominate graphs by an order of magnitude at typical
dims), so it is stored as row shards — ``features/shard-XXXXX.npy``,
each holding ``shard_rows`` consecutive rows — and gathered on demand:

* **hot-node cache** — power-law graphs concentrate gathers on a small
  set of high-degree nodes (every sampled batch touches the hubs).  At
  open time the top rows of the store's degree ordering are loaded into
  one dense in-memory array, bounded by ``hot_cache_bytes``; gathers
  hit it without touching disk.
* **shard reads** — cold rows are read from lazily opened, memory-mapped
  shards, grouped per shard so each gather touches every needed shard
  exactly once.

The store quacks like the 2-D ndarray the trainer already indexes
(``shape`` / ``dtype`` / ``__getitem__`` / ``astype``), so every
consumer of ``dataset.features`` works unchanged on top of it.

Host-memory accounting: ``resident_bytes`` is the hot cache plus its
slot table; ``peak_resident_bytes`` is the high-water mark of that plus
the in-flight gather output and is exported as the
``buffalo.store.peak_resident_bytes`` gauge — the number the parity
test holds under a budget smaller than the full matrix.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.contracts import locks_required
from repro.config import INDEX_DTYPE
from repro.errors import DatasetError
from repro.obs.metrics import BYTE_BUCKETS, SECONDS_BUCKETS, get_metrics
from repro.obs.trace import get_tracer
from repro.store.layout import StoreManifest, load_mapped, read_manifest

HOT_ORDER_FILE = "hot_order.npy"

#: Default budget for the hot-node cache (bytes).
DEFAULT_HOT_CACHE_BYTES = 16 << 20


def shard_name(shard: int) -> str:
    return f"features/shard-{shard:05d}.npy"


def assemble_rows(
    ids: np.ndarray,
    hot_slot: np.ndarray,
    hot_rows: np.ndarray,
    open_shard: Callable[[int], np.ndarray],
    shard_rows: int,
) -> tuple[np.ndarray, int]:
    """Rows of ``ids`` as a fresh array, and how many the hot cache served.

    Each row is copied into the output once past its source read: hot
    rows by one take from the cache, cold rows by one take per shard —
    in ascending id order, each shard touched once — each scattered
    straight to its output positions.
    """
    out = np.empty((ids.size, hot_rows.shape[1]), dtype=hot_rows.dtype)
    slots = hot_slot[ids]
    hot_pos = np.flatnonzero(slots >= 0)
    if hot_pos.size:
        out[hot_pos] = np.take(hot_rows, slots[hot_pos], axis=0)
    if hot_pos.size < ids.size:
        cold_pos = np.flatnonzero(slots < 0)
        cold_pos = cold_pos[np.argsort(ids[cold_pos], kind="stable")]
        cold_ids = ids[cold_pos]
        shards = cold_ids // shard_rows
        bounds = np.flatnonzero(np.diff(shards)) + 1
        start = 0
        for end in bounds.tolist() + [cold_ids.size]:
            shard = int(shards[start])
            local = cold_ids[start:end] - shard * shard_rows
            out[cold_pos[start:end]] = np.take(
                open_shard(shard), local, axis=0
            )
            start = end
    return out, int(hot_pos.size)


class FeatureStore:
    """Row-sharded on-disk feature matrix with ndarray-style access.

    Args:
        root: store directory.
        manifest: pre-parsed manifest (read from ``root`` when omitted).
        hot_cache_bytes: budget of the degree-ordered hot-row cache
            (``0`` disables it).
        host_budget_bytes: soft ceiling on resident feature bytes.  The
            hot cache is shrunk to fit under it; gathers larger than the
            remaining headroom still run (correctness first) but the
            overage is visible in ``peak_resident_bytes``.

    Thread safety: training gathers from one thread, but nothing
    stops a caller gathering from several; all mutable state (shard
    maps, statistics, residency) is guarded by one lock, while shard
    reads themselves run unlocked (memmaps are read-only).
    """

    def __init__(
        self,
        root: str | Path,
        manifest: StoreManifest | None = None,
        *,
        hot_cache_bytes: int | None = None,
        host_budget_bytes: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.manifest = manifest or read_manifest(self.root)
        m = self.manifest
        self.dtype = np.dtype(m.feature_dtype)
        self.shape = (int(m.n_nodes), int(m.feat_dim))
        self.ndim = 2
        self.row_bytes = int(m.feat_dim) * self.dtype.itemsize
        self.shard_rows = int(m.shard_rows)
        self.n_shards = int(m.n_shards)
        self.host_budget_bytes = (
            int(host_budget_bytes) if host_budget_bytes else None
        )
        self._shards: dict[int, np.ndarray] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        # Statistics.
        self.gathers = 0  # guarded-by: _lock
        self.hot_hits = 0  # guarded-by: _lock
        self.disk_rows = 0  # guarded-by: _lock
        self.bytes_read = 0  # guarded-by: _lock
        self._peak_resident = 0  # guarded-by: _lock
        self._build_hot_cache(
            DEFAULT_HOT_CACHE_BYTES
            if hot_cache_bytes is None
            else int(hot_cache_bytes)
        )

    # ------------------------------------------------------------------
    # Hot-node cache
    # ------------------------------------------------------------------
    def _build_hot_cache(self, hot_cache_bytes: int) -> None:
        n_nodes, dim = self.shape
        # The slot table (one int32 per node) is part of the resident
        # footprint and must fit under the host budget too.
        slot_bytes = n_nodes * 4
        if self.host_budget_bytes is not None:
            headroom = self.host_budget_bytes - slot_bytes
            hot_cache_bytes = max(min(hot_cache_bytes, headroom), 0)
        n_hot = min(hot_cache_bytes // max(self.row_bytes, 1), n_nodes)
        self._hot_slot = np.full(n_nodes, -1, dtype=np.int32)  # guarded-by: construction-only (read-only once published)
        self._hot_rows = np.empty((0, dim), dtype=self.dtype)
        if n_hot <= 0:
            self._note_resident(0)
            return
        order = load_mapped(self.root, HOT_ORDER_FILE, self.manifest)
        # Deliberate bounded materialization: n_hot ids, not the matrix.
        hot_ids = np.asarray(  # repro: noqa[memmap-copy]
            order[:n_hot], dtype=INDEX_DTYPE
        )
        hot_ids = np.sort(hot_ids)
        self._hot_rows, _ = self._gather(hot_ids)
        self._hot_slot[hot_ids] = np.arange(n_hot, dtype=np.int32)
        # The warm-up read is disk traffic but not a gather; keep the
        # gather counters clean.
        self.disk_rows = 0
        self.bytes_read = 0
        self._note_resident(0)

    @property
    def hot_rows(self) -> int:
        """Rows resident in the hot-node cache."""
        return int(self._hot_rows.shape[0])

    @property
    def hot_cache_bytes(self) -> int:
        return int(self._hot_rows.nbytes)

    # ------------------------------------------------------------------
    # Residency accounting
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Hot cache + slot table (steady state)."""
        return self.hot_cache_bytes + self._hot_slot.nbytes

    @property
    def peak_resident_bytes(self) -> int:
        """High-water mark of resident + in-flight gather bytes."""
        return self._peak_resident

    @locks_required("_lock")
    def _note_resident(self, transient_bytes: int) -> None:
        total = self.resident_bytes + int(transient_bytes)
        if total > self._peak_resident:
            self._peak_resident = total
            get_metrics().gauge(
                "buffalo.store.peak_resident_bytes",
                help="peak host-resident feature bytes (cache+gather)",
            ).set(total)

    # ------------------------------------------------------------------
    # Raw shard access
    # ------------------------------------------------------------------
    def _shard(self, shard: int) -> np.ndarray:
        mapped = self._shards.get(shard)
        if mapped is None:
            mapped = load_mapped(self.root, shard_name(shard), self.manifest)
            with self._lock:
                # A concurrent opener may have won; keep its map so both
                # threads serve the same object.
                mapped = self._shards.setdefault(shard, mapped)
        return mapped

    def _gather(self, ids: np.ndarray) -> tuple[np.ndarray, int]:
        """:func:`assemble_rows` from this store, counting disk reads."""
        out, n_hot = assemble_rows(
            ids, self._hot_slot, self._hot_rows, self._shard, self.shard_rows
        )
        n_cold = ids.size - n_hot
        if n_cold:
            with self._lock:
                self.disk_rows += n_cold
                self.bytes_read += n_cold * self.row_bytes
            get_metrics().counter(
                "buffalo.store.disk_bytes_read",
                help="feature bytes read from store shards",
            ).inc(n_cold * self.row_bytes)
        return out, n_hot

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def gather(self, node_ids: np.ndarray) -> np.ndarray:
        """Features of ``node_ids`` as a fresh ``(n, dim)`` array.

        Rows come from the hot-node cache and the mapped shards; the
        values are identical whichever serves them.
        """
        ids = np.asarray(node_ids, dtype=INDEX_DTYPE).ravel()
        start = time.perf_counter()
        with get_tracer().span("store.gather", {"n_rows": int(ids.size)}):
            out, n_hot = self._gather(ids)
        with self._lock:
            self.hot_hits += n_hot
            self.gathers += 1
            self._note_resident(out.nbytes)
        metrics = get_metrics()
        metrics.histogram(
            "buffalo.store.gather_s",
            SECONDS_BUCKETS,
            help="host feature-gather latency per call",
        ).observe(time.perf_counter() - start)
        metrics.histogram(
            "buffalo.store.gather_bytes",
            BYTE_BUCKETS,
            help="bytes returned per feature gather",
        ).observe(out.nbytes)
        return out

    @property
    def hot_hit_rate(self) -> float:
        """Fraction of gathered rows served by the hot-node cache."""
        total = self.hot_hits + self.disk_rows
        return self.hot_hits / total if total else 0.0

    @property
    def staged_rows(self) -> int:
        # Always 0: kept only for benchmarks/e2e/workloads.py::store_counters.
        return 0

    def reset_stats(self) -> None:
        """Zero the gather counters (benchmark warm-up boundary)."""
        with self._lock:
            self.gathers = 0
            self.hot_hits = 0
            self.disk_rows = 0
            self.bytes_read = 0
            self._peak_resident = 0

    # ------------------------------------------------------------------
    # Read-only snapshots (serving path)
    # ------------------------------------------------------------------
    def read_snapshot(self) -> "FeatureStoreSnapshot":
        """A read-only view safe to gather from concurrently.

        The serving tier gathers features while training may be
        gathering from this store on another thread.  A snapshot never
        touches the store's mutable state — it captures the hot cache
        arrays at creation time, opens its own shard maps, and keeps
        its own statistics under its own lock — so serve-path gathers
        neither show up in training's counters nor contend on (or race
        against) the store's lock.  Values are bit-for-bit identical to
        :meth:`gather`.

        The snapshot reads the same immutable on-disk shards the store
        does; it remains valid after :meth:`close` (its captured hot
        rows and private maps keep working).
        """
        with self._lock:
            hot_rows = self._hot_rows
            hot_slot = self._hot_slot
        return FeatureStoreSnapshot(self, hot_rows, hot_slot)

    # ------------------------------------------------------------------
    # ndarray compatibility
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Logical bytes of the full matrix (not resident bytes)."""
        return self.shape[0] * self.row_bytes

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.gather(np.asarray([index]))[0]
        if isinstance(index, slice):
            start, stop, step = index.indices(self.shape[0])
            return self.gather(np.arange(start, stop, step))
        return self.gather(index)

    def astype(self, dtype, copy: bool = True):
        """Match ``ndarray.astype``; a same-dtype no-copy request keeps
        the store (layer-wise inference materializes per chunk)."""
        if np.dtype(dtype) == self.dtype and not copy:
            return self
        return self.materialize().astype(dtype, copy=False)

    def __array__(self, dtype=None):
        dense = self.materialize()
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def materialize(self) -> np.ndarray:
        """Read the whole matrix into memory (escape hatch; counts
        against the peak-resident metric like any other gather)."""
        return self.gather(np.arange(self.shape[0], dtype=INDEX_DTYPE))

    def close(self) -> None:
        """Drop shard maps and the hot cache."""
        with self._lock:
            self._shards.clear()
            self._hot_rows = np.empty((0, self.shape[1]), dtype=self.dtype)
            self._hot_slot = np.full(self.shape[0], -1, dtype=np.int32)

    def __repr__(self) -> str:
        return (
            f"FeatureStore(root={str(self.root)!r}, shape={self.shape}, "
            f"hot_rows={self.hot_rows}, shards={self.n_shards})"
        )


class FeatureStoreSnapshot:
    """Read-only feature view over a store's shards and hot cache.

    Created by :meth:`FeatureStore.read_snapshot`.  Shares no mutable
    state with the parent store: the hot-cache arrays are captured
    references (the store never mutates them in place), shard memmaps
    are opened privately, and statistics live behind this object's own
    lock.  Concurrent gathers from serving threads therefore cannot
    trip a :class:`~repro.analysis.race.RaceSentinel` attached to the
    training store.
    """

    def __init__(
        self,
        store: FeatureStore,
        hot_rows: np.ndarray,
        hot_slot: np.ndarray,
    ) -> None:
        self.root = store.root
        self.manifest = store.manifest
        self.dtype = store.dtype
        self.shape = store.shape
        self.ndim = 2
        self.row_bytes = store.row_bytes
        self.shard_rows = store.shard_rows
        self._hot_rows = hot_rows
        self._hot_slot = hot_slot
        self._shards: dict[int, np.ndarray] = {}
        self._lock = threading.Lock()
        self.rows_served = 0
        self.hot_hits = 0

    def _shard(self, shard: int) -> np.ndarray:
        with self._lock:
            mapped = self._shards.get(shard)
        if mapped is None:
            mapped = load_mapped(self.root, shard_name(shard), self.manifest)
            with self._lock:
                mapped = self._shards.setdefault(shard, mapped)
        return mapped

    def gather(self, node_ids: np.ndarray) -> np.ndarray:
        """Features of ``node_ids``, bit-identical to the store's."""
        ids = np.asarray(node_ids, dtype=INDEX_DTYPE).ravel()
        out, n_hot = assemble_rows(
            ids, self._hot_slot, self._hot_rows, self._shard, self.shard_rows
        )
        with self._lock:
            self.rows_served += int(ids.size)
            self.hot_hits += n_hot
        get_metrics().counter(
            "buffalo.serve.snapshot_rows",
            help="feature rows served through read-only store snapshots",
        ).inc(ids.size)
        return out

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self.gather(np.asarray([index]))[0]
        if isinstance(index, slice):
            start, stop, step = index.indices(self.shape[0])
            return self.gather(np.arange(start, stop, step))
        return self.gather(index)

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        return (
            f"FeatureStoreSnapshot(root={str(self.root)!r}, "
            f"shape={self.shape}, hot_rows={int(self._hot_rows.shape[0])})"
        )
