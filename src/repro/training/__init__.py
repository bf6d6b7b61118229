"""High-level training workflows on top of Buffalo.

The paper's system supports full-batch and mini-batch training (§I);
this package provides the user-facing loop: seed-batched epochs
(:mod:`dataloader`), accuracy evaluation (:mod:`evaluate`), checkpoints
(:mod:`checkpoint`), and an epoch runner with early stopping
(:mod:`loop`).
"""

from repro.training.dataloader import SeedBatchLoader
from repro.training.evaluate import accuracy, evaluate
from repro.training.checkpoint import load_checkpoint, save_checkpoint
from repro.training.inference import full_graph_accuracy, full_graph_inference
from repro.training.loop import EpochResult, TrainingLoop

__all__ = [
    "SeedBatchLoader",
    "accuracy",
    "evaluate",
    "full_graph_inference",
    "full_graph_accuracy",
    "save_checkpoint",
    "load_checkpoint",
    "TrainingLoop",
    "EpochResult",
]
