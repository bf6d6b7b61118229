"""Kernel-backend micro-benchmark: fused CSR reduce vs dense reference.

Times one forward+backward pass of each bucketed aggregation op
(``sum`` / ``mean`` / ``max``) on a synthetic *cut-off bucket* — the
bucket the paper's power-law graphs concentrate edges into (§III,
Fig. 4) and the one the fused backend exists to accelerate.  The same
workload drives three consumers:

* ``repro bench kernels`` (CLI) — writes ``BENCH_kernels.json`` and,
  with ``--check``, exits non-zero when the fused backend regresses
  below the floor (the CI perf-smoke gate).
* the ``kernels`` experiment (``repro experiment kernels`` /
  ``benchmarks/test_kernels.py``) — human-readable table plus shape
  checks.
* ``tests/kernels`` — correctness suites reuse the workload builder.

Peak *scratch* is what the tentpole targets: the simulated-GPU ledger
high-water minus the input features (which both backends share), plus
the fused backend's arena high-water (arena buffers never become
tensors, so the ledger cannot see them).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.device import SimulatedGPU
from repro.errors import ReproError
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket
from repro.kernels import (
    FusedBackend,
    KernelBackend,
    ReferenceBackend,
    use_kernel_backend,
)
from repro.tensor import Tensor

#: Ledger capacity for benchmark devices — large enough that no
#: workload OOMs; we only read the high-water mark.
_BENCH_CAPACITY = 1 << 40

#: Acceptance floors recorded alongside results (ISSUE acceptance:
#: >=1.5x wall-time speedup and >=30% lower peak scratch on sum/mean).
SPEEDUP_TARGET = 1.5
SCRATCH_RATIO_TARGET = 0.7

#: CI gate floor: fail the perf-smoke job when fused is more than 10%
#: slower than reference (best-of-N guards against scheduler flake).
CI_MIN_SPEEDUP = 0.9

#: The sub-crossover row: 48 * 4 * 16 = 3072 elements of work sits well
#: below the shipped dense/CSR crossover, so the hybrid dispatch routes
#: it down the dense arm — the gate exercises both dispatch paths.
SMALL_BUCKET = {"n_rows": 48, "degree": 4, "feat_dim": 16}

_BACKEND_CLASSES: dict[str, type[KernelBackend]] = {
    "reference": ReferenceBackend,
    "fused": FusedBackend,
}


@dataclass
class KernelWorkload:
    """A single cut-off bucket over a synthetic bipartite block."""

    block: Block
    bucket: Bucket
    feats: np.ndarray

    @property
    def meta(self) -> dict[str, int]:
        return {
            "n_rows": self.bucket.volume,
            "degree": self.bucket.degree,
            "feat_dim": int(self.feats.shape[1]),
            "n_src": self.block.n_src,
        }


def make_cutoff_bucket_workload(
    *,
    n_rows: int = 4096,
    degree: int = 24,
    feat_dim: int = 64,
    n_src: int | None = None,
    seed: int = 0,
) -> KernelWorkload:
    """Build a block whose rows all share one (cut-off) degree.

    Every destination row draws exactly ``degree`` random neighbors from
    ``n_src`` sources — the shape of the cut-off bucket after fanout
    truncation, where all heavy rows have been clipped to ``F``.
    """
    if n_src is None:
        n_src = max(2 * n_rows, n_rows + degree)
    if n_src < n_rows:
        raise ReproError(
            f"n_src ({n_src}) must cover the dst prefix ({n_rows})"
        )
    rng = np.random.default_rng(seed)
    indptr = np.arange(n_rows + 1, dtype=np.int64) * degree
    indices = rng.integers(0, n_src, size=n_rows * degree, dtype=np.int64)
    block = Block(
        src_nodes=np.arange(n_src),
        dst_nodes=np.arange(n_rows),
        indptr=indptr,
        indices=indices,
    )
    bucket = Bucket(degree=degree, rows=np.arange(n_rows))
    feats = rng.standard_normal((n_src, feat_dim)).astype(FLOAT_DTYPE)
    return KernelWorkload(block=block, bucket=bucket, feats=feats)


def _bucket_alpha(workload: KernelWorkload) -> np.ndarray:
    """Seeded per-edge attention weights for the alpha-dot row."""
    rng = np.random.default_rng(workload.bucket.n_edges or 1)
    return rng.standard_normal(
        (workload.bucket.volume, workload.bucket.degree)
    ).astype(workload.feats.dtype)


def _run_once(
    backend: KernelBackend,
    workload: KernelWorkload,
    op: str,
) -> dict[str, float]:
    """One timed group on a fresh device; returns wall and peaks.

    ``op`` is a reduce op (``sum`` / ``mean`` / ``max``) or
    ``"attention"``, which runs the learned-weight path
    (``bucket_attention_sum`` + the per-edge alpha-dot backward).
    """
    device = SimulatedGPU(_BENCH_CAPACITY, name="bench")
    src = Tensor(workload.feats, requires_grad=True, device=device)
    alpha = (
        Tensor(_bucket_alpha(workload), requires_grad=True, device=device)
        if op == "attention"
        else None
    )
    device.reset_peak()
    start = time.perf_counter()
    with use_kernel_backend(backend):
        backend.begin_group()
        try:
            if alpha is not None:
                out = backend.bucket_attention_sum(
                    workload.block, workload.bucket, src, alpha
                )
            else:
                out = backend.bucket_reduce(
                    workload.block, workload.bucket, src, op
                )
            out.backward(np.ones(out.shape, dtype=out.dtype))
        finally:
            backend.end_group()
    wall = time.perf_counter() - start
    # Ledger peak counts src + outputs + gradient accumulators; the
    # arena is invisible to it (its buffers never become tensors), so
    # charge the backend its full arena high-water on every run.
    scratch = (device.peak_bytes - src.nbytes) + backend.workspace.peak_bytes
    return {
        "wall_s": wall,
        "peak_bytes": float(device.peak_bytes),
        "scratch_bytes": float(scratch),
        "workspace_peak_bytes": float(backend.workspace.peak_bytes),
    }


def _measure(
    backend: KernelBackend,
    workload: KernelWorkload,
    op: str,
    repeats: int,
) -> dict[str, float]:
    """Best-of-``repeats`` after one warmup (warms the arena)."""
    _run_once(backend, workload, op)
    runs = [_run_once(backend, workload, op) for _ in range(repeats)]
    best = min(runs, key=lambda r: r["wall_s"])
    return best


def run_kernel_bench(
    *,
    n_rows: int = 4096,
    degree: int = 24,
    feat_dim: int = 64,
    repeats: int = 3,
    ops: Iterable[str] = ("sum", "mean", "max"),
    backends: Iterable[str] = ("reference", "fused"),
    seed: int = 0,
) -> dict[str, Any]:
    """Benchmark each (op, backend) pair on the cut-off bucket workload.

    Returns the machine-readable result dict that ``BENCH_kernels.json``
    serializes: per-op wall time / peak scratch per backend, plus
    ``speedup`` (reference wall over fused wall) and ``scratch_ratio``
    (fused scratch over reference scratch) when both backends ran.
    """
    workload = make_cutoff_bucket_workload(
        n_rows=n_rows, degree=degree, feat_dim=feat_dim, seed=seed
    )
    backends = tuple(backends)
    for name in backends:
        if name not in _BACKEND_CLASSES:
            raise ReproError(
                f"unknown kernel backend {name!r}; "
                f"expected one of {sorted(_BACKEND_CLASSES)}"
            )
    result: dict[str, Any] = {
        "benchmark": "kernels",
        "workload": {
            **workload.meta,
            "repeats": repeats,
            "seed": seed,
            "cpu_count": int(os.cpu_count() or 1),
        },
        "targets": {
            "speedup": SPEEDUP_TARGET,
            "scratch_ratio": SCRATCH_RATIO_TARGET,
            "ci_min_speedup": CI_MIN_SPEEDUP,
        },
        "ops": {},
        "buckets": {},
    }
    result["ops"] = _compare_backends(workload, ops, backends, repeats)
    # The sub-crossover row: routed down the dense arm by the hybrid
    # dispatch, so the gate notices a broken dense fallback too.
    small = make_cutoff_bucket_workload(seed=seed, **SMALL_BUCKET)
    result["buckets"]["small"] = {
        "workload": small.meta,
        "ops": _compare_backends(small, ("sum", "mean"), backends, repeats),
    }
    # The attention row: learned per-edge weights, exercising the
    # alpha-dot backward.
    result["buckets"]["attention"] = {
        "workload": workload.meta,
        "ops": _compare_backends(
            workload, ("attention",), backends, repeats
        ),
    }
    return result


def _compare_backends(
    workload: KernelWorkload,
    ops: Iterable[str],
    backends: Iterable[str],
    repeats: int,
) -> dict[str, Any]:
    """Per-op reference-vs-fused cells (plus speedup/scratch ratios)."""
    compared: dict[str, Any] = {}
    for op in ops:
        per_op: dict[str, Any] = {}
        for name in backends:
            # Fresh backend per (op, backend) cell: arena growth and
            # counters must not leak across measurements.
            per_op[name] = _measure(
                _BACKEND_CLASSES[name](), workload, op, repeats
            )
        if "reference" in per_op and "fused" in per_op:
            ref, fused = per_op["reference"], per_op["fused"]
            per_op["speedup"] = ref["wall_s"] / max(fused["wall_s"], 1e-12)
            per_op["scratch_ratio"] = fused["scratch_bytes"] / max(
                ref["scratch_bytes"], 1.0
            )
        compared[op] = per_op
    return compared


def write_bench_json(result: dict[str, Any], path: str | Path) -> Path:
    """Serialize a benchmark result to ``path`` (``BENCH_kernels.json``)."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def ledger_record_from_kernel_result(
    result: dict[str, Any],
    *,
    gate_ops: Iterable[str] = ("sum", "mean"),
    min_speedup: float = CI_MIN_SPEEDUP,
):
    """Convert a :func:`run_kernel_bench` result into a ledger record.

    The kernels gate is defined once, as ledger floors:
    ``ops.<op>.speedup >= min_speedup`` for the gated ops — only
    ``sum`` and ``mean`` by default, since ``max`` keeps an argmax
    tracker for the backward and is allowed to trade wall time for
    exactness.  ``repro ledger check`` therefore reproduces the CI
    perf-smoke behavior while also enabling cross-run comparison
    against a checked-in baseline.
    """
    from repro.obs.observatory.ledger import LedgerRecord, flatten_numeric

    metrics = flatten_numeric(result.get("ops", {}), "ops")
    floors = {f"ops.{op}.speedup": float(min_speedup) for op in gate_ops}
    for name, bucket in result.get("buckets", {}).items():
        metrics.update(
            flatten_numeric(bucket.get("ops", {}), f"buckets.{name}")
        )
    return LedgerRecord(
        name="kernels",
        config=dict(result.get("workload", {})),
        metrics=metrics,
        floors=floors,
    )
