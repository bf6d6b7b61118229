"""Memory estimation for buckets and bucket groups (paper §IV-D).

``BucketMemEstimator`` computes ``M_est[i]`` — the training memory of the
micro-batch a bucket would generate on its own — by walking the batch's
block chain restricted to that bucket's rows (the paper obtains the same
``I``, ``O``, ``D`` quantities "during micro-batch generation") and
feeding the resulting per-layer degree histograms to the analytic
footprints of :mod:`repro.gnn.footprint`.

``redundancy_group_estimate`` implements Eq. 2 with the grouping ratio of
Eq. 1:

.. math::  R_{group}[i] = \\min(1, I_i / (O_i \\cdot D_i \\cdot C))

where ``I`` = input nodes, ``O`` = output nodes, ``D`` = bucket degree
and ``C`` = the graph's average clustering coefficient.  The ratio
discounts each bucket's standalone estimate by the node redundancy it
shares with the rest of its group — the source of the non-linear memory
behaviour the paper measures (micro-batches 25–60% larger than a linear
split would predict).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import SchedulingError
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket
from repro.gnn.footprint import (
    Footprint,
    ModelSpec,
    input_feature_bytes,
    layer_footprint,
    training_peak_bytes,
)
from repro.graph.subgraph import _ragged_gather, unique_ids


@dataclass(frozen=True)
class BucketProfile:
    """Reachability statistics of one output-layer bucket.

    Attributes:
        n_output: ``O`` — output nodes (bucket volume).
        degree: ``D`` — the bucket's sampled degree.
        n_input: ``I`` — distinct input-layer nodes the bucket depends on.
        layer_histograms: per layer (input-most first), the sampled-degree
            histogram of the rows processed at that layer.
    """

    n_output: int
    degree: int
    n_input: int
    layer_histograms: tuple[dict[int, int], ...]


def walk_rows(
    blocks: list[Block], rows: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows of ``blocks[0]`` reachable from output ``rows`` of ``blocks[-1]``.

    Walks the chain output-most block first.  Each layer's next rows
    are the current rows themselves (their hidden states feed the
    combine step) plus every gathered neighbor position — positions
    into ``src_nodes`` are the previous block's row ids by the chain
    property — deduped by :func:`~repro.graph.subgraph.unique_ids` over
    the block's ``n_src``.  Degree-0 rows keep only themselves.

    Returns the input-layer rows and each layer's row degrees,
    input-most first.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    layer_degrees: list[np.ndarray] = []
    for block in reversed(blocks):
        starts = block.indptr[rows]
        degrees = block.indptr[rows + 1] - starts
        layer_degrees.append(degrees)
        if degrees.any():
            neighbor_positions = _ragged_gather(block.indices, starts, degrees)
            rows = unique_ids(
                np.concatenate([rows, neighbor_positions]), block.n_src
            )
    return rows, layer_degrees[::-1]


class BucketMemEstimator:
    """Estimates memory for buckets of a batch's output layer.

    Args:
        blocks: the batch's chained blocks, input-most first.
        model: the workload's :class:`~repro.gnn.footprint.ModelSpec`.
        clustering_coefficient: the graph's average clustering
            coefficient ``C`` (obtained by offline analysis, Table II).
    """

    def __init__(
        self,
        blocks: list[Block],
        model: ModelSpec,
        clustering_coefficient: float,
    ) -> None:
        if len(blocks) != model.n_layers:
            raise SchedulingError(
                f"model depth {model.n_layers} does not match "
                f"{len(blocks)} blocks"
            )
        self.blocks = blocks
        self.model = model
        self.clustering = float(clustering_coefficient)
        # Keyed by bucket content (degree + row bytes) so the scheduler's
        # K-search reuses the reachability walks of the stable non-split
        # buckets without id-reuse hazards.
        self._profile_cache: dict[tuple[int, bytes], BucketProfile] = {}
        # Estimates keyed by profile identity (profiles are interned in
        # the cache above, so ids are stable while the estimator lives).
        self._estimate_cache: dict[int, float] = {}

    @staticmethod
    def _cache_key(bucket: Bucket) -> tuple[int, bytes]:
        return (bucket.degree, bucket.rows.tobytes())

    # ------------------------------------------------------------------
    def profile(self, bucket: Bucket) -> BucketProfile:
        """Walk the block chain restricted to ``bucket``'s rows (cached)."""
        key = self._cache_key(bucket)
        cached = self._profile_cache.get(key)
        if cached is not None:
            return cached
        rows, layer_degrees = walk_rows(self.blocks, bucket.rows)
        histograms = []
        for degrees in layer_degrees:
            counts = np.bincount(degrees)
            histograms.append(
                {d: int(counts[d]) for d in np.flatnonzero(counts).tolist()}
            )
        result = BucketProfile(
            n_output=bucket.volume,
            degree=bucket.degree,
            n_input=int(rows.size),
            layer_histograms=tuple(histograms),
        )
        self._profile_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def profile_many(self, buckets: list[Bucket]) -> list[BucketProfile]:
        """Profile many buckets in one segmented walk (cache-warming).

        The per-bucket reachability walks of :meth:`profile` are
        numpy-call-overhead bound; batching every bucket's frontier into
        a single (segment-id, row) array does one vectorized pass per
        layer for the whole set.  Results are identical to per-bucket
        :meth:`profile` calls (tests assert this) and are written into
        the cache, so subsequent lookups are free.
        """
        pending = [
            b for b in buckets if self._cache_key(b) not in self._profile_cache
        ]
        if pending:
            self._profile_batch(pending)
        return [self.profile(b) for b in buckets]

    def _profile_batch(self, buckets: list[Bucket]) -> None:
        n_buckets = len(buckets)
        seg = np.repeat(
            np.arange(n_buckets, dtype=INDEX_DTYPE),
            [b.rows.size for b in buckets],
        )
        rows = np.concatenate(
            [np.asarray(b.rows, dtype=INDEX_DTYPE) for b in buckets]
        )
        histograms: list[list[dict[int, int]]] = [[] for _ in buckets]

        for block in reversed(self.blocks):
            degrees = block.indptr[rows + 1] - block.indptr[rows]
            # Per-segment degree histogram in one bincount; nonzero of
            # the (segment, degree) table walks it row-major, so each
            # dict fills in ascending degree like np.unique's does.
            max_d = int(degrees.max(initial=0))
            counts = np.bincount(
                seg * (max_d + 1) + degrees,
                minlength=n_buckets * (max_d + 1),
            ).reshape(n_buckets, max_d + 1)
            for per_bucket in histograms:
                per_bucket.append({})
            hit_seg, hit_degree = np.nonzero(counts)
            for i, d, c in zip(
                hit_seg.tolist(),
                hit_degree.tolist(),
                counts[hit_seg, hit_degree].tolist(),
            ):
                histograms[i][-1][d] = c

            if degrees.any():
                # Per-segment unique via one sort of a single int64 key:
                # rows and neighbor positions both index src_nodes
                # (dst-prefix), so seg * n_src + row orders by segment,
                # then row, and n_buckets * n_src is nowhere near 2**63.
                stride = block.n_src
                base = seg * stride
                keys = np.concatenate(
                    [
                        base + rows,
                        np.repeat(base, degrees)
                        + _ragged_gather(
                            block.indices, block.indptr[rows], degrees
                        ),
                    ]
                )
                keys.sort()
                keep = np.ones(keys.size, dtype=bool)
                np.not_equal(keys[1:], keys[:-1], out=keep[1:])
                keys = keys[keep]
                seg = keys // stride
                rows = keys - seg * stride

        sizes = np.bincount(seg, minlength=n_buckets)
        for i, bucket in enumerate(buckets):
            profile = BucketProfile(
                n_output=bucket.volume,
                degree=bucket.degree,
                n_input=int(sizes[i]),
                layer_histograms=tuple(reversed(histograms[i])),
            )
            self._profile_cache[self._cache_key(bucket)] = profile

    def estimate(self, bucket: Bucket) -> float:
        """``M_est`` — standalone training memory of the bucket, bytes."""
        return self.estimate_from_profile(self.profile(bucket))

    def estimate_from_profile(self, profile: BucketProfile) -> float:
        cached = self._estimate_cache.get(id(profile))
        if cached is not None:
            return cached
        footprints: list[Footprint] = []
        for i, ((f_in, f_out), histogram) in enumerate(
            zip(self.model.layer_dims(), profile.layer_histograms)
        ):
            footprints.append(
                layer_footprint(
                    histogram,
                    f_in,
                    f_out,
                    self.model.aggregator,
                    self.model.hidden_dim,
                    input_requires_grad=(i > 0),
                )
            )
        estimate = training_peak_bytes(
            footprints,
            input_feature_bytes(profile.n_input, self.model.in_dim),
            self.model.param_bytes(),
        )
        self._estimate_cache[id(profile)] = estimate
        return estimate

    # ------------------------------------------------------------------
    def grouping_ratio(self, profile: BucketProfile) -> float:
        """Eq. 1: ``R_group = min(1, I / (O * D * C))``."""
        denominator = (
            profile.n_output * max(profile.degree, 1) * max(self.clustering, 1e-6)
        )
        return min(1.0, profile.n_input / denominator)


def redundancy_group_estimate(
    estimator: BucketMemEstimator,
    buckets: list[Bucket],
    *,
    profiles: dict[int, BucketProfile] | None = None,
) -> float:
    """Eq. 2: group memory = sum of ``M_est[i] * R_group[i]``.

    Args:
        estimator: the batch's estimator.
        buckets: the group's members.
        profiles: optional cache keyed by ``id(bucket)`` to avoid
            re-walking the block chain inside the grouping loop.
    """
    total = 0.0
    for bucket in buckets:
        if profiles is not None and id(bucket) in profiles:
            profile = profiles[id(bucket)]
        else:
            profile = estimator.profile(bucket)
            if profiles is not None:
                profiles[id(bucket)] = profile
        ratio = estimator.grouping_ratio(profile) if len(buckets) > 1 else 1.0
        total += estimator.estimate_from_profile(profile) * ratio
    return total
