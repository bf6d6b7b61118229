"""Device-resident feature cache across micro-batches.

Micro-batches built from the same batch share input nodes (the
redundancy Buffalo's estimator models, §IV-D); reloading every shared
node's features over PCIe per micro-batch wastes transfer time.  This
cache keeps recently used feature rows on the device (LRU, bounded by a
byte budget carved out of the device's memory) and loads only the
missing rows — the tiered-memory direction the paper's related work
points at.

The cache is deliberately conservative about memory: its resident bytes
are tracked as a symbolic allocation on the device ledger, so a cache
that would crowd out activations shows up as OOM, exactly like an
over-eager real cache would.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.device.device import SimulatedGPU
from repro.errors import DeviceError


class FeatureCache:
    """LRU cache of per-node feature rows on a simulated device.

    Args:
        device: the GPU whose ledger and PCIe link are charged.
        feat_bytes: bytes of one node's feature row.
        capacity_bytes: cache budget; rows are evicted LRU when full.

    Usage: call :meth:`load` with the global node ids a micro-batch
    needs; it returns the transfer seconds spent (only misses are
    transferred) and updates hit statistics.
    """

    def __init__(
        self,
        device: SimulatedGPU,
        feat_bytes: int,
        capacity_bytes: int,
    ) -> None:
        if feat_bytes <= 0:
            raise DeviceError(f"feat_bytes must be positive, got {feat_bytes}")
        if capacity_bytes < feat_bytes:
            raise DeviceError(
                "cache capacity must hold at least one feature row"
            )
        self.device = device
        self.feat_bytes = int(feat_bytes)
        self.capacity_bytes = int(capacity_bytes)
        self.max_rows = self.capacity_bytes // self.feat_bytes
        self._resident: OrderedDict[int, None] = OrderedDict()
        self._handle = device.alloc(0)  # grows with residency
        self._resident_bytes = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _resize(self, n_rows: int) -> None:
        """Re-book the cache's symbolic allocation at ``n_rows`` rows."""
        self.device.free(self._handle)
        self._resident_bytes = n_rows * self.feat_bytes
        self._handle = self.device.alloc(self._resident_bytes)

    def load(self, nodes: np.ndarray) -> float:
        """Ensure ``nodes``' features are on device; returns transfer s."""
        nodes = np.asarray(nodes).ravel()
        missing = 0
        for node in nodes.tolist():
            if node in self._resident:
                self._resident.move_to_end(node)
                self.hits += 1
                continue
            self.misses += 1
            missing += 1
            self._resident[node] = None
            while len(self._resident) > self.max_rows:
                self._resident.popitem(last=False)
        self._resize(len(self._resident))
        if missing == 0:
            return 0.0
        return self.device.load(missing * self.feat_bytes)

    # ------------------------------------------------------------------
    @property
    def resident_rows(self) -> int:
        return len(self._resident)

    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached rows and release the device bytes."""
        self._resident.clear()
        self._resize(0)
        self.hits = 0
        self.misses = 0

    def close(self) -> None:
        """Release the cache's device allocation entirely."""
        self.device.free(self._handle)
        self._handle = None
