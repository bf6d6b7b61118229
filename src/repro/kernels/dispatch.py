"""Kernel backend registry and the active-backend switch.

One process-wide active backend (default: fused) keeps the model
code backend-oblivious: layers call :func:`get_kernel_backend` at each
forward, and the trainer scopes its configured backend around each
micro-batch with :func:`use_kernel_backend`.  Backends are singletons —
their workspace arenas are exactly the state that must survive across
micro-batches for reuse to pay off.
"""

from __future__ import annotations

import contextlib

from repro.errors import ReproError
from repro.kernels.base import KernelBackend
from repro.kernels.fused import FusedBackend
from repro.kernels.reference import ReferenceBackend

__all__ = [
    "KERNEL_BACKENDS",
    "get_kernel_backend",
    "resolve_backend",
    "set_kernel_backend",
    "use_kernel_backend",
]

#: Registry name -> backend class.
_BACKEND_CLASSES: dict[str, type[KernelBackend]] = {
    "reference": ReferenceBackend,
    "fused": FusedBackend,
}

#: The selectable backend names (CLI choices, docs).
KERNEL_BACKENDS = tuple(sorted(_BACKEND_CLASSES))

_INSTANCES: dict[str, KernelBackend] = {}


def resolve_backend(backend: str | KernelBackend) -> KernelBackend:
    """The singleton instance for a backend name (instances pass through)."""
    if isinstance(backend, KernelBackend):
        return backend
    instance = _INSTANCES.get(backend)
    if instance is None:
        cls = _BACKEND_CLASSES.get(backend)
        if cls is None:
            raise ReproError(
                f"unknown kernel backend {backend!r}; available: "
                f"{list(KERNEL_BACKENDS)}"
            )
        instance = cls()
        _INSTANCES[backend] = instance
    return instance


_ACTIVE: KernelBackend | None = None


def get_kernel_backend() -> KernelBackend:
    """The active backend (fused unless configured otherwise)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = resolve_backend("fused")
    return _ACTIVE


def set_kernel_backend(backend: str | KernelBackend) -> KernelBackend:
    """Set the active backend; returns the previous one."""
    global _ACTIVE
    previous = get_kernel_backend()
    _ACTIVE = resolve_backend(backend)
    return previous


@contextlib.contextmanager
def use_kernel_backend(backend: str | KernelBackend):
    """Scope the active backend (the trainer wraps micro-batches in this)."""
    previous = set_kernel_backend(backend)
    try:
        yield get_kernel_backend()
    finally:
        set_kernel_backend(previous)
