"""Degree bucketing with a cut-off degree ``F`` (paper §II-C).

Nodes of identical sampled degree are grouped so each bucket aggregates a
fixed-shape ``(n, degree, features)`` tensor with zero padding waste.
Nodes with degree >= ``F`` all land in the single *cut-off bucket* — the
bucket that explodes on power-law graphs (paper §III, Fig. 4).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import GraphError


@dataclass(eq=False)  # identity equality: rows are numpy arrays
class Bucket:
    """A set of destination rows sharing one sampled degree.

    Attributes:
        degree: the common sampled degree of the rows (for the cut-off
            bucket this is the *effective* degree — rows are truncated to
            ``F`` neighbors, matching fanout-``F`` sampling semantics).
        rows: destination-row indices (into a block's ``dst_nodes``).
        micro_index: ``None`` for an ordinary degree bucket; for a
            micro-bucket produced by ``SplitExplosionBucket``, its index
            within the split.
    """

    degree: int
    rows: np.ndarray
    micro_index: int | None = None

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(self.rows, dtype=INDEX_DTYPE)
        # The block this bucket's row degrees last validated against, so
        # the kernel layer checks them once per (bucket, block) pair —
        # see repro.kernels.csr.  Weak (a bucket must not pin its block)
        # and callback-free (a callback closing over us is a cycle).
        self._validated_block: weakref.ref | None = None

    def validated_for(self, block) -> bool:
        """Whether row degrees were already validated against ``block``."""
        ref = self._validated_block
        return ref is not None and ref() is block

    def mark_validated(self, block) -> None:
        """Record that this bucket's rows validated against ``block``."""
        self._validated_block = weakref.ref(block)

    @property
    def volume(self) -> int:
        """Number of nodes in the bucket (the paper's *bucket volume*)."""
        return int(self.rows.size)

    @property
    def is_micro(self) -> bool:
        return self.micro_index is not None

    @property
    def n_edges(self) -> int:
        """Aggregation edges processed for this bucket."""
        return self.volume * self.degree

    def __repr__(self) -> str:
        micro = f", micro={self.micro_index}" if self.is_micro else ""
        return f"Bucket(degree={self.degree}, volume={self.volume}{micro})"


def bucketize_degrees(
    degrees: np.ndarray, cutoff: int | None
) -> list[Bucket]:
    """Group rows by degree with cut-off ``F = cutoff``.

    Rows with ``degree < cutoff`` go to exact-degree buckets; rows with
    ``degree >= cutoff`` form the single cut-off bucket labeled
    ``cutoff``.  Degree-0 rows get their own bucket (they aggregate
    nothing but still produce output features).

    With ``cutoff=None`` every distinct degree gets its own bucket —
    the exact-degree bucketing full-batch (unsampled) training needs,
    where row degrees are unbounded and a cut-off bucket would mix
    degrees.

    Returns buckets sorted by degree ascending; empty degrees are
    omitted.
    """
    degrees = np.asarray(degrees)
    if cutoff is None:
        clipped = degrees
    elif cutoff < 1:
        raise GraphError(f"cutoff must be >= 1, got {cutoff}")
    else:
        clipped = np.minimum(degrees, cutoff)
    order = np.argsort(clipped, kind="stable")
    sorted_deg = clipped[order]
    boundaries = np.flatnonzero(np.diff(sorted_deg)) + 1
    groups = np.split(order, boundaries)
    buckets = []
    for group in groups:
        if group.size == 0:
            continue
        buckets.append(Bucket(degree=int(clipped[group[0]]), rows=group))
    return buckets


def detect_explosion(
    buckets: list[Bucket],
    cutoff: int | None,
    *,
    factor: float = 2.0,
) -> Bucket | None:
    """Return the cut-off bucket when it explodes, else ``None``.

    The paper flags bucket explosion when the cut-off bucket dwarfs the
    others; we use the operational test "cut-off bucket volume exceeds
    ``factor`` times the mean volume of the remaining buckets" (with at
    least one other bucket present, any cut-off bucket of more than half
    the total also counts).

    With exact-degree bucketing (``cutoff=None``, the full-batch path)
    there is no designated cut-off bucket; the test applies to the
    highest-volume bucket instead.
    """
    if cutoff is None:
        cut = max(buckets, key=lambda b: b.volume, default=None)
    else:
        cut = next((b for b in buckets if b.degree == cutoff), None)
    if cut is None:
        return None
    others = [b.volume for b in buckets if b is not cut]
    if not others:
        return cut
    mean_other = float(np.mean(others))
    total = cut.volume + sum(others)
    if cut.volume > factor * mean_other or cut.volume > 0.5 * total:
        return cut
    return None


@dataclass
class BucketStats:
    """Summary used by the Fig. 4 reproduction."""

    volumes: dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_buckets(cls, buckets: list[Bucket]) -> "BucketStats":
        stats = cls()
        for b in buckets:
            stats.volumes[b.degree] = stats.volumes.get(b.degree, 0) + b.volume
        return stats

    @property
    def imbalance(self) -> float:
        """Largest bucket volume over mean volume."""
        vols = list(self.volumes.values())
        return max(vols) / (sum(vols) / len(vols)) if vols else 0.0
