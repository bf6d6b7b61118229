"""Seed batching for mini-batch GNN training.

Shuffles the training nodes each epoch and yields fixed-size seed
batches — the standard neighbor-sampling training regime the paper's
systems operate in.  Each batch is then sampled, scheduled, and trained
independently (the Buffalo pipeline runs per batch).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import rng_from
from repro.errors import ReproError


class SeedBatchLoader:
    """Yields shuffled seed batches of a node set.

    Args:
        nodes: the training node ids.
        batch_size: seeds per batch.
        shuffle: reshuffle every epoch.
        drop_last: drop the final short batch (keeps batch shapes
            comparable across iterations).
        seed: RNG seed; epoch ``e`` uses ``seed + e`` so runs are
            reproducible yet epochs differ.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        batch_size: int,
        *,
        shuffle: bool = True,
        drop_last: bool = False,
        seed: int = 0,
    ) -> None:
        self.nodes = np.asarray(nodes)
        if self.nodes.size == 0:
            raise ReproError("SeedBatchLoader needs at least one node")
        if batch_size < 1:
            raise ReproError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.seed = seed
        self._epoch = 0

    def __len__(self) -> int:
        """Batches per epoch."""
        full, rem = divmod(self.nodes.size, self.batch_size)
        if rem and not self.drop_last:
            return full + 1
        return full

    def __iter__(self) -> Iterator[np.ndarray]:
        order = self.nodes
        if self.shuffle:
            rng = rng_from(self.seed + self._epoch)
            order = rng.permutation(self.nodes)
        self._epoch += 1
        for start in range(0, order.size, self.batch_size):
            batch = order[start : start + self.batch_size]
            if batch.size < self.batch_size and self.drop_last:
                return
            yield np.sort(batch)

    @property
    def epochs_served(self) -> int:
        return self._epoch
