"""Byte-accurate memory ledger with weakref-based buffer tracking."""

from __future__ import annotations

import weakref

import numpy as np

from repro.errors import DeviceError, DeviceOutOfMemoryError


class _TrackedRef(weakref.ref):
    """Weak reference to a tracked buffer that carries its ledger entry.

    The release callback reads ``key`` / ``nbytes`` off the dying
    reference, so one bound method serves every buffer.
    """

    __slots__ = ("key", "nbytes")


class MemoryTracker:
    """Tracks live bytes against an optional capacity.

    Buffers are registered with :meth:`track` (weakref: bytes are released
    when the array is garbage collected) or with explicit
    :meth:`alloc` / :meth:`free` handles (symbolic execution).

    Attributes:
        capacity: budget in bytes, or ``None`` for unlimited.
        live_bytes: bytes currently allocated.
        peak_bytes: high-water mark since construction / last
            :meth:`reset_peak`.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity <= 0:
            raise DeviceError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.live_bytes = 0
        self.peak_bytes = 0
        self.oom_count = 0
        self._tracked: dict[int, _TrackedRef] = {}
        self._handles: dict[int, int] = {}
        self._next_handle = 0

    # ------------------------------------------------------------------
    def _charge(self, nbytes: int) -> None:
        if (
            self.capacity is not None
            and self.live_bytes + nbytes > self.capacity
        ):
            self.oom_count += 1
            raise DeviceOutOfMemoryError(
                nbytes, self.live_bytes, self.capacity
            )
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes

    # ------------------------------------------------------------------
    # Weakref path (concrete tensors)
    # ------------------------------------------------------------------
    def track(self, array: np.ndarray) -> None:
        """Register a numpy buffer; released automatically on GC.

        Views (reshapes, slices) share their parent's buffer: the array
        at the end of the ``.base`` chain owns it and is charged once.
        """
        if not isinstance(array, np.ndarray):
            array = np.asarray(array)
        base = array.base
        while isinstance(base, np.ndarray):
            array = base
            base = array.base
        key = id(array)
        if key in self._tracked:
            return
        nbytes = array.nbytes
        self._charge(nbytes)
        ref = _TrackedRef(array, self._release)
        ref.key = key
        ref.nbytes = nbytes
        self._tracked[key] = ref

    def _release(self, ref: _TrackedRef) -> None:
        if self._tracked.pop(ref.key, None) is not None:
            self.live_bytes -= ref.nbytes

    # ------------------------------------------------------------------
    # Handle path (symbolic execution)
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        """Record an allocation of ``nbytes``; returns a handle."""
        if nbytes < 0:
            raise DeviceError(f"cannot allocate {nbytes} bytes")
        self._charge(int(nbytes))
        handle = self._next_handle
        self._next_handle += 1
        self._handles[handle] = int(nbytes)
        return handle

    def free(self, handle: int) -> None:
        """Release an allocation made with :meth:`alloc`."""
        nbytes = self._handles.pop(handle, None)
        if nbytes is None:
            raise DeviceError(f"free of unknown or already-freed handle {handle}")
        self.live_bytes -= nbytes

    # ------------------------------------------------------------------
    def reset_peak(self) -> None:
        """Restart the high-water mark at the current live size."""
        self.peak_bytes = self.live_bytes

    def would_fit(self, nbytes: int) -> bool:
        """True when ``nbytes`` more would stay within capacity."""
        if self.capacity is None:
            return True
        return self.live_bytes + nbytes <= self.capacity
