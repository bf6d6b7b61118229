"""Tests for backend resolution and the active-backend switch."""

import pytest

from repro.errors import GraphError, ReproError
from repro.kernels import dispatch
from repro.kernels import (
    KERNEL_BACKENDS,
    FusedBackend,
    ReferenceBackend,
    get_kernel_backend,
    resolve_backend,
    set_kernel_backend,
    use_kernel_backend,
)


class TestResolve:
    def test_registry_names(self):
        assert set(KERNEL_BACKENDS) == {"reference", "fused"}

    def test_singletons(self):
        assert resolve_backend("fused") is resolve_backend("fused")
        assert isinstance(resolve_backend("fused"), FusedBackend)
        assert isinstance(resolve_backend("reference"), ReferenceBackend)

    def test_instance_passes_through(self):
        backend = FusedBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ReproError, match="unknown kernel backend"):
            resolve_backend("cuda")


class TestActiveBackend:
    def test_default_is_fused(self, monkeypatch):
        # With no backend configured, a bare forward (and
        # footprint(backend=None)) runs the path the trainer runs.
        monkeypatch.setattr(dispatch, "_ACTIVE", None)
        assert get_kernel_backend().name == "fused"

    def test_use_scopes_and_restores(self):
        before = get_kernel_backend()
        with use_kernel_backend("fused") as active:
            assert active.name == "fused"
            assert get_kernel_backend() is active
        assert get_kernel_backend() is before

    def test_nested_scopes(self):
        with use_kernel_backend("fused"):
            with use_kernel_backend("reference"):
                assert get_kernel_backend().name == "reference"
            assert get_kernel_backend().name == "fused"

    def test_restores_on_error(self):
        before = get_kernel_backend()
        with pytest.raises(RuntimeError):
            with use_kernel_backend("fused"):
                raise RuntimeError("boom")
        assert get_kernel_backend() is before

    def test_set_returns_previous(self):
        previous = set_kernel_backend("fused")
        try:
            assert get_kernel_backend().name == "fused"
        finally:
            set_kernel_backend(previous)


class TestOpValidation:
    def test_bad_op_rejected(self, cutoff_workload):
        from repro.tensor import Tensor

        w = cutoff_workload
        for backend in (ReferenceBackend(), FusedBackend()):
            with pytest.raises(GraphError, match="unknown bucket reduce op"):
                backend.bucket_reduce(
                    w.block, w.bucket, Tensor(w.feats), "median"
                )
