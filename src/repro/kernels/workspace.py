"""Workspace arena: reusable scratch buffers for kernel backends.

Every bucket aggregation needs the same few scratch shapes — a flat
position vector, a gathered column of features, a gradient
accumulator — and a micro-batch visits every bucket of its group, every
iteration.  Allocating those per call is what turns the aggregation hot
path into an allocator benchmark; the arena instead keeps one named
buffer per role and hands out views, growing geometrically when a
bucket group needs more than any previous one did.

Lifetime contract (see docs/kernels.md):

* a view returned by :meth:`Workspace.request` is valid only until the
  next ``request`` of the *same name* — callers must finish with (or
  copy out of) the scratch before asking for it again;
* arena views must never become ``Tensor.data`` or be captured by
  backward closures; autograd-visible arrays are owned allocations;
* :meth:`end_group` marks a bucket-group boundary (one micro-batch) and
  publishes ``buffalo.kernel.*`` metrics; buffers deliberately survive
  the boundary so the next micro-batch of the group reuses them.

The arena is *not* thread-safe.  That is by design: pipeline staging
threads only gather features, kernels always run on the compute thread
(the bit-for-bit parity invariant of :mod:`repro.pipeline.engine`), so
a per-backend arena never sees concurrent requests.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace"]

#: Growth factor when a request outgrows a buffer: over-allocate so a
#: slowly growing bucket sequence does not reallocate per bucket.
_GROWTH = 1.5


class Workspace:
    """Named scratch-buffer arena with geometric growth.

    Attributes:
        hits: requests served from an existing buffer.
        allocs: requests that (re)allocated a buffer.
        peak_bytes: high-water mark of total arena capacity.
    """

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self._buffers: dict[str, np.ndarray] = {}
        self.hits = 0
        self.allocs = 0
        self.peak_bytes = 0
        self._groups = 0

    # ------------------------------------------------------------------
    def request(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Return a ``shape``-sized view of the buffer called ``name``.

        The view's contents are undefined (callers overwrite before
        reading).  A second ``request`` with the same name invalidates
        the first view; distinct names never alias.
        """
        dtype = np.dtype(dtype)
        size = int(math.prod(shape))
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            capacity = size
            if buf is not None and buf.dtype == dtype:
                capacity = max(size, int(buf.size * _GROWTH))
            # The arena is the one owner of kernel scratch; everything
            # downstream borrows views of this allocation.
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[name] = buf
            self.allocs += 1
            self.peak_bytes = max(self.peak_bytes, self.nbytes)
        else:
            self.hits += 1
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Current total arena capacity in bytes."""
        return sum(b.nbytes for b in self._buffers.values())

    def clear(self) -> None:
        """Drop every buffer (used between workloads, not per group)."""
        self._buffers.clear()

    # ------------------------------------------------------------------
    def begin_group(self) -> None:
        """Mark the start of one bucket group (one micro-batch)."""

    def end_group(self) -> None:
        """Mark the end of a bucket group and publish arena metrics.

        Buffers survive the boundary: the whole point of the arena is
        that micro-batch ``i+1`` reuses micro-batch ``i``'s scratch.
        """
        from repro.obs.metrics import get_metrics

        self._groups += 1
        metrics = get_metrics()
        metrics.gauge(
            "buffalo.kernel.workspace_bytes",
            help="kernel workspace arena capacity after the last group",
        ).set(self.nbytes)
        metrics.gauge(
            "buffalo.kernel.workspace_peak_bytes",
            help="high-water kernel workspace arena capacity",
        ).set(self.peak_bytes)
        metrics.gauge(
            "buffalo.kernel.workspace_hits",
            help="scratch requests served without allocating",
        ).set(self.hits)
        metrics.gauge(
            "buffalo.kernel.workspace_allocs",
            help="scratch requests that (re)allocated a buffer",
        ).set(self.allocs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace({self.name!r}, buffers={len(self._buffers)}, "
            f"bytes={self.nbytes}, hits={self.hits}, allocs={self.allocs})"
        )
