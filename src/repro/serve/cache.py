"""Byte-budgeted LRU cache of computed per-node embeddings.

Serving workloads are heavily skewed (a few hot nodes absorb most
requests), so recomputing a hot node's L-hop aggregation per request
wastes the whole batch budget.  The cache stores finished output rows
keyed by node id and *engine epoch*: any graph or weight update bumps
the epoch, so stale rows are structurally unreachable — a lookup
carrying the new epoch treats them as misses and drops them on
contact.  :meth:`invalidate_all` additionally clears eagerly for
operators who want the memory back immediately.

Thread discipline: one lock (``_lock``) guards every shared mutation;
the serve worker and update notifiers may race.  Checked by
``repro lint``'s whole-program lock analysis.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.errors import ReproError
from repro.obs.metrics import get_metrics

DEFAULT_EMBED_CACHE_BYTES = 8 * 1024 * 1024


class EmbeddingCache:
    """LRU over ``node id -> (epoch, output row)`` with a byte budget.

    Args:
        capacity_bytes: total payload budget; least-recently-used rows
            are evicted to stay under it.  0 disables caching (every
            get misses, every put is dropped).
    """

    def __init__(
        self, capacity_bytes: int = DEFAULT_EMBED_CACHE_BYTES
    ) -> None:
        if capacity_bytes < 0:
            raise ReproError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity_bytes = int(capacity_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, tuple[int, np.ndarray]] = (
            OrderedDict()
        )  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock
        metrics = get_metrics()
        self._m_hits = metrics.counter(
            "buffalo.serve.embed_cache_hits", help="embedding cache hits"
        )
        self._m_misses = metrics.counter(
            "buffalo.serve.embed_cache_misses", help="embedding cache misses"
        )
        self._m_evictions = metrics.counter(
            "buffalo.serve.embed_cache_evictions",
            help="LRU evictions under the byte budget",
        )
        self._m_bytes = metrics.gauge(
            "buffalo.serve.embed_cache_bytes", help="cached payload bytes"
        )
        self._m_invalidations = metrics.counter(
            "buffalo.serve.invalidations_total",
            help="explicit full-cache invalidations",
        )

    def get(self, node: int, epoch: int) -> np.ndarray | None:
        """The cached row for ``node`` at ``epoch``, or ``None``.

        A row cached under an older epoch is dropped (it can never be
        served again) and counted as a miss.
        """
        node = int(node)
        with self._lock:
            entry = self._entries.get(node)
            if entry is None:
                self._misses += 1
                self._m_misses.inc()
                return None
            cached_epoch, row = entry
            if cached_epoch != epoch:
                del self._entries[node]
                self._bytes -= row.nbytes
                self._m_bytes.set(self._bytes)
                self._misses += 1
                self._m_misses.inc()
                return None
            self._entries.move_to_end(node)
            self._hits += 1
            self._m_hits.inc()
            return row

    def put(self, node: int, epoch: int, row: np.ndarray) -> None:
        """Insert (or refresh) ``node``'s row, evicting LRU to budget."""
        row = np.ascontiguousarray(row)
        if row.nbytes > self.capacity_bytes:
            return
        node = int(node)
        with self._lock:
            old = self._entries.pop(node, None)
            if old is not None:
                self._bytes -= old[1].nbytes
            self._entries[node] = (epoch, row)
            self._bytes += row.nbytes
            while self._bytes > self.capacity_bytes and self._entries:
                _, (_, evicted) = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self._evictions += 1
                self._m_evictions.inc()
            self._m_bytes.set(self._bytes)

    def invalidate_all(self, reason: str = "") -> int:
        """Eagerly drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self._invalidations += 1
            self._m_invalidations.inc()
            self._m_bytes.set(0)
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "invalidations": self._invalidations,
            }

    def __repr__(self) -> str:
        s = self.stats
        return (
            f"EmbeddingCache(entries={s['entries']}, "
            f"bytes={s['bytes']}/{self.capacity_bytes}, "
            f"hits={s['hits']}, misses={s['misses']})"
        )
