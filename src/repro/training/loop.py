"""Epoch-level training loop: Buffalo per mini-batch, eval, early stop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.api import BuffaloTrainer
from repro.datasets.catalog import Dataset
from repro.errors import ReproError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer
from repro.training.checkpoint import save_checkpoint
from repro.training.dataloader import SeedBatchLoader
from repro.training.evaluate import evaluate


@dataclass
class EpochResult:
    """Metrics of one epoch.

    Attributes:
        wall_s: end-to-end wall-clock seconds of the epoch (batches +
            evaluation).
        metrics: one registry snapshot taken at epoch end — cumulative
            process-wide instrument state, captured once per epoch
            rather than per batch.
    """

    epoch: int
    mean_loss: float
    val_accuracy: float | None
    n_batches: int
    total_micro_batches: int
    wall_s: float = 0.0
    metrics: dict = field(default_factory=dict)


@dataclass
class TrainingLoop:
    """Mini-batch training driven by a :class:`BuffaloTrainer`.

    Each epoch shuffles the train split into seed batches; every batch
    runs the full Buffalo pipeline (sample → schedule → micro-batches →
    gradient-accumulated step).  Optionally evaluates on a validation
    split each epoch, tracks the best model, and stops early when
    validation accuracy stops improving.

    Every epoch runs inside a ``train.epoch`` span and snapshots the
    metrics registry exactly once (at epoch end) — per-batch telemetry
    lives in the per-iteration spans and instruments instead, so the
    loop itself stays off the hot path.

    Attributes:
        trainer: the configured Buffalo trainer (model, device, fanouts).
        dataset: supplies features/labels and the splits.
        batch_size: seeds per mini-batch.
        val_nodes: validation node ids (``None`` disables evaluation).
        patience: epochs without val improvement before stopping
            (``None`` disables early stopping).
        checkpoint_path: when set, the best model (by val accuracy, or
            latest when no validation) is saved here each time it
            improves.
    """

    trainer: BuffaloTrainer
    dataset: Dataset
    batch_size: int = 256
    val_nodes: np.ndarray | None = None
    patience: int | None = None
    checkpoint_path: str | Path | None = None
    seed: int = 0
    history: list[EpochResult] = field(default_factory=list)

    def run(self, n_epochs: int) -> list[EpochResult]:
        """Train for up to ``n_epochs``; returns the epoch history."""
        if n_epochs < 1:
            raise ReproError(f"n_epochs must be >= 1, got {n_epochs}")
        loader = SeedBatchLoader(
            self.dataset.train_nodes, self.batch_size, seed=self.seed
        )
        tracer = get_tracer()
        registry = get_metrics()
        best_acc = -1.0
        stale = 0
        for epoch in range(n_epochs):
            epoch_start = time.perf_counter()
            with tracer.span("train.epoch", {"epoch": epoch}) as span:
                losses = []
                micro_total = 0
                for seeds in loader:
                    report = self.trainer.run_iteration(seeds)
                    losses.append(report.result.loss)
                    micro_total += report.n_micro_batches

                val_acc = None
                if self.val_nodes is not None and self.val_nodes.size:
                    val_acc = evaluate(
                        self.trainer.model,
                        self.dataset,
                        self.val_nodes,
                        self.trainer.fanouts,
                        seed=self.seed,
                    )
                span.set_attrs(
                    {
                        "n_batches": len(losses),
                        "mean_loss": float(np.mean(losses)),
                        "total_micro_batches": micro_total,
                    }
                )
                if val_acc is not None:
                    span.set_attr("val_accuracy", val_acc)
                # Capture the wall clock *inside* the span: closing it
                # emits to the trace sink, and a slow sink's flush is
                # observability overhead, not training time.
                wall_s = time.perf_counter() - epoch_start

            # One registry snapshot per epoch — not per batch: the
            # instruments are cumulative, so sampling them once at the
            # epoch boundary captures everything the batches recorded.
            result = EpochResult(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                val_accuracy=val_acc,
                n_batches=len(losses),
                total_micro_batches=micro_total,
                wall_s=wall_s,
                metrics=registry.snapshot(),
            )
            self.history.append(result)

            improved = val_acc is None or val_acc > best_acc
            if improved:
                best_acc = val_acc if val_acc is not None else best_acc
                stale = 0
                if self.checkpoint_path is not None:
                    save_checkpoint(
                        self.checkpoint_path,
                        self.trainer.model,
                        metadata={
                            "epoch": epoch,
                            "mean_loss": result.mean_loss,
                            "val_accuracy": val_acc,
                        },
                    )
            else:
                stale += 1
                if self.patience is not None and stale > self.patience:
                    break
        return self.history
