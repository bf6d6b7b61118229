"""Forward-only serving engine over the training stack's kernels.

One :class:`ServeEngine` owns a trained model plus the graph/feature
sources and turns a coalesced batch of node ids into logits:

1. look each node up in the :class:`~repro.serve.cache.EmbeddingCache`
   (hit -> finished row, no compute);
2. sample every remaining node's L-hop neighborhood *independently*,
   seeded by ``(sampler_seed, graph_version, node)`` — predictions are
   a pure function of those three, never of batch composition;
3. gather the batch's deduplicated input-feature union in one shot
   (plain array, or a :class:`~repro.store.FeatureStoreSnapshot` for
   lock-free reads beside a live trainer);
4. run the bucketed forward under ``no_grad`` — by default one
   fixed-shape forward per computed node (bitwise identical to
   serving it alone), or, with ``merged_forward=True``, a single pass
   over the merged chained blocks from
   :func:`~repro.serve.merge.merge_block_lists` (float32
   summation-order noise vs strict, see the class docs).

Graph/weight updates bump an *epoch*; cached rows from older epochs
become unreachable and the sampler reseeds, so serving converges to
the new state without restarts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.config import FLOAT_DTYPE, INDEX_DTYPE
from repro.core.fastblock import generate_blocks_fast
from repro.errors import ReproError
from repro.gnn.block import Block
from repro.graph.csr import CSRGraph
from repro.graph.sampling import sample_batch
from repro.kernels import resolve_backend, use_kernel_backend
from repro.nn.module import Module
from repro.obs.metrics import (
    LATENCY_SECONDS_BUCKETS,
    SMALL_COUNT_BUCKETS,
    get_metrics,
)
from repro.obs.trace import get_tracer
from repro.serve.cache import EmbeddingCache
from repro.serve.merge import merge_block_lists
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class BatchStats:
    """Cost-model inputs and bookkeeping for one executed batch.

    The deterministic service model in :mod:`repro.serve.sim` prices a
    batch from these fields, so they must be pure functions of the
    batch's composition (no wall-clock inputs).
    """

    n_requests: int
    n_computed: int
    cache_hits: int
    n_edges: int
    n_input_rows: int
    compute_s: float
    hit_nodes: frozenset = frozenset()


class ServeEngine:
    """Batched forward-only inference over a trained model.

    Args:
        model: trained module with the ``(blocks, feats, cutoffs)``
            forward signature; switched to eval mode on attach.
        graph: full graph to sample neighborhoods from.
        features: input features — a ``(n_nodes, dim)`` array or any
            object with ``gather(node_ids)`` (e.g.
            :class:`~repro.store.FeatureStoreSnapshot`).
        fanouts: per-layer sampling fanouts, output layer first (the
            training configuration's fanouts).
        sampler_seed: base seed for per-request neighborhood sampling.
        cache: embedding cache (``None`` -> a default-sized one).
        merged_forward: run one forward over the merged chained blocks
            (:mod:`repro.serve.merge`) instead of one per computed
            request.  BLAS matmuls are not bit-stable across row
            counts/positions, so the merged path trades the strict
            bitwise batched==unbatched guarantee for single-kernel
            execution; outputs agree to float32 summation-order noise
            (~1e-6).  The default (``False``) keeps parity exact:
            sampling, dedup, and the feature gather still batch, and
            each computed node then runs a fixed-shape forward whose
            matmul shapes match serving it alone.
        kernel_backend: bucket-aggregation backend for the bucketed
            forwards ("reference" | "fused", see :mod:`repro.kernels`);
            the engine scopes it around every batch's forward pass.
    """

    def __init__(
        self,
        model: Module,
        graph: CSRGraph,
        features,
        fanouts: list[int] | tuple[int, ...],
        *,
        sampler_seed: int = 0,
        cache: EmbeddingCache | None = None,
        merged_forward: bool = False,
        kernel_backend: str = "reference",
    ) -> None:
        fanouts = tuple(int(f) for f in fanouts)
        if not fanouts or any(f < 1 for f in fanouts):
            raise ReproError(
                f"fanouts must be positive and non-empty, got {fanouts}"
            )
        self.model = model.eval()
        self.graph = graph
        self.fanouts = fanouts
        self.cutoffs = list(reversed(fanouts))
        self.sampler_seed = int(sampler_seed)
        self.merged_forward = bool(merged_forward)
        self.kernel = resolve_backend(kernel_backend)
        self.cache = EmbeddingCache() if cache is None else cache
        if hasattr(features, "gather"):
            self._gather_rows = features.gather
        else:
            features = np.asarray(features, dtype=FLOAT_DTYPE)
            self._gather_rows = lambda ids: features[ids]
        self._lock = threading.Lock()
        self._graph_version = 0  # guarded-by: _lock
        self._weights_version = 0  # guarded-by: _lock
        self._next_batch_id = 0  # guarded-by: _lock
        metrics = get_metrics()
        self._m_batches = metrics.counter(
            "buffalo.serve.batches_total", help="executed serving batches"
        )
        self._m_occupancy = metrics.histogram(
            "buffalo.serve.batch_occupancy",
            buckets=SMALL_COUNT_BUCKETS,
            help="requests coalesced per batch",
        )
        self._m_compute = metrics.histogram(
            "buffalo.serve.batch_compute_s",
            buckets=LATENCY_SECONDS_BUCKETS,
            help="wall compute time per batch",
        )
        self._m_edges = metrics.counter(
            "buffalo.serve.batch_edges",
            help="aggregation edges executed while serving",
        )
        self._m_predictions = metrics.counter(
            "buffalo.serve.predictions_total", help="prediction rows returned"
        )

    # -- versioning ----------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.graph.n_nodes

    @property
    def epoch(self) -> int:
        """Combined version: bumps on any graph or weight update."""
        with self._lock:
            return self._graph_version + self._weights_version

    @property
    def graph_version(self) -> int:
        with self._lock:
            return self._graph_version

    @property
    def weights_version(self) -> int:
        with self._lock:
            return self._weights_version

    def notify_graph_update(self) -> None:
        """The graph changed: reseed sampling, invalidate embeddings."""
        with self._lock:
            self._graph_version += 1
        self.cache.invalidate_all("graph_update")

    def notify_weights_update(self) -> None:
        """Weights changed: cached embeddings are stale, sampling isn't."""
        with self._lock:
            self._weights_version += 1
        self.cache.invalidate_all("weights_update")

    # -- degree bucketing ----------------------------------------------
    def degree_key(self, node: int) -> int:
        """Coalescing key: the node's output-layer bucket.

        Nodes of equal sampled degree share a fixed-shape aggregation
        bucket; degrees at or above the output fanout share the cutoff
        bucket (they all sample exactly ``fanouts[0]`` neighbors).
        """
        return int(min(self.graph.degrees[int(node)], self.fanouts[0]))

    # -- inference ------------------------------------------------------
    def _request_rng(self, node: int, graph_version: int):
        """Per-request generator: pure function of (seed, version, node)."""
        seq = np.random.SeedSequence(
            [self.sampler_seed, int(graph_version), int(node)]
        )
        return np.random.default_rng(seq)

    def _sample_one(
        self, node: int, graph_version: int
    ) -> tuple[list[Block], np.ndarray]:
        """Sample one node's neighborhood; returns (blocks, node_map)."""
        seeds = np.array([node], dtype=INDEX_DTYPE)
        batch = sample_batch(
            self.graph,
            seeds,
            self.fanouts,
            rng=self._request_rng(node, graph_version),
        )
        return generate_blocks_fast(batch), batch.node_map

    def _forward_merged(
        self, sampled: list[tuple[list[Block], np.ndarray]]
    ) -> tuple[list[np.ndarray], int, int]:
        """One forward over the merged chained blocks (fast path)."""
        with get_tracer().span("serve.merge") as merge_span:
            merged = merge_block_lists(
                [blocks for blocks, _ in sampled],
                [node_map for _, node_map in sampled],
            )
            merge_span.set_attrs(
                {
                    "n_requests": merged.n_requests,
                    "n_edges": merged.n_edges,
                    "n_input_rows": merged.n_input_rows,
                }
            )
        with get_tracer().span("serve.gather"):
            feats = Tensor(
                np.ascontiguousarray(
                    self._gather_rows(merged.input_nodes),
                    dtype=FLOAT_DTYPE,
                )
            )
        with get_tracer().span("serve.forward"), no_grad(), (
            use_kernel_backend(self.kernel)
        ):
            # One batch = one bucket group: the fused backend's arena
            # is recycled across batches, metrics flush per batch.
            self.kernel.begin_group()
            try:
                logits = self.model(
                    merged.blocks, feats, self.cutoffs
                ).data
            finally:
                self.kernel.end_group()
        computed = [logits[i] for i in range(len(sampled))]
        return computed, merged.n_edges, merged.n_input_rows

    def _forward_per_request(
        self, sampled: list[tuple[list[Block], np.ndarray]]
    ) -> tuple[list[np.ndarray], int, int]:
        """Coalesced gather, then a fixed-shape forward per request.

        Feature rows are fetched once for the batch's deduplicated
        input-node union (the IO the snapshot/store path amortizes)
        and row-sliced per request — a bitwise copy, so each forward
        sees exactly the tensors serving that node alone would.
        """
        request_ids = [
            node_map[blocks[0].src_nodes]
            for blocks, node_map in sampled
        ]
        with get_tracer().span("serve.gather") as gather_span:
            union = np.unique(np.concatenate(request_ids))
            gathered = np.ascontiguousarray(
                self._gather_rows(union), dtype=FLOAT_DTYPE
            )
            gather_span.set_attrs(
                {
                    "n_unique_rows": int(union.size),
                    "n_total_rows": int(
                        sum(ids.size for ids in request_ids)
                    ),
                }
            )
        computed: list[np.ndarray] = []
        n_edges = 0
        n_input_rows = 0
        with get_tracer().span("serve.forward"), no_grad(), (
            use_kernel_backend(self.kernel)
        ):
            # One batch = one bucket group (scratch reuse across the
            # per-request forwards; forward-only, so no backward
            # borrows from the arena past end_group).
            self.kernel.begin_group()
            try:
                for (blocks, _), ids in zip(sampled, request_ids):
                    feats = Tensor(
                        np.ascontiguousarray(
                            gathered[np.searchsorted(union, ids)]
                        )
                    )
                    logits = self.model(blocks, feats, self.cutoffs).data
                    computed.append(logits[0])
                    n_edges += sum(b.n_edges for b in blocks)
                    n_input_rows += int(ids.size)
            finally:
                self.kernel.end_group()
        return computed, n_edges, n_input_rows

    def predict_batch(
        self, nodes
    ) -> tuple[np.ndarray, BatchStats]:
        """Logits for a coalesced batch of node ids.

        Repeated nodes are computed once and fanned back out; cached
        nodes skip compute entirely.  Row ``i`` of the result is the
        prediction for ``nodes[i]``, identical bit-for-bit to serving
        that node alone.
        """
        nodes = [int(n) for n in np.asarray(nodes, dtype=INDEX_DTYPE).ravel()]
        if not nodes:
            raise ReproError("predict_batch needs at least one node")
        with self._lock:
            graph_version = self._graph_version
            epoch = self._graph_version + self._weights_version
            batch_id = self._next_batch_id
            self._next_batch_id += 1
        started = time.perf_counter()
        with get_tracer().span("serve.batch") as span:
            rows: dict[int, np.ndarray] = {}
            hit_nodes: set[int] = set()
            to_compute: list[int] = []
            for node in nodes:
                if node in rows or node in to_compute:
                    continue
                cached = self.cache.get(node, epoch)
                if cached is not None:
                    rows[node] = cached
                    hit_nodes.add(node)
                else:
                    to_compute.append(node)
            cache_hits = len(hit_nodes)

            n_edges = 0
            n_input_rows = 0
            if to_compute:
                with get_tracer().span("serve.sample") as sample_span:
                    sampled = [
                        self._sample_one(node, graph_version)
                        for node in to_compute
                    ]
                    sample_span.set_attrs({"n_requests": len(to_compute)})
                if self.merged_forward:
                    computed, n_edges, n_input_rows = (
                        self._forward_merged(sampled)
                    )
                else:
                    computed, n_edges, n_input_rows = (
                        self._forward_per_request(sampled)
                    )
                for node, row in zip(to_compute, computed):
                    row = np.ascontiguousarray(row)
                    rows[node] = row
                    self.cache.put(node, epoch, row)

            out = np.stack([rows[node] for node in nodes])
            span.set_attrs(
                {
                    "batch_id": batch_id,
                    "n_requests": len(nodes),
                    "n_computed": len(to_compute),
                    "cache_hits": cache_hits,
                    "n_edges": n_edges,
                }
            )
        compute_s = time.perf_counter() - started
        stats = BatchStats(
            n_requests=len(nodes),
            n_computed=len(to_compute),
            cache_hits=cache_hits,
            n_edges=n_edges,
            n_input_rows=n_input_rows,
            compute_s=compute_s,
            hit_nodes=frozenset(hit_nodes),
        )
        self._m_batches.inc()
        self._m_occupancy.observe(len(nodes))
        self._m_compute.observe(compute_s)
        self._m_edges.inc(n_edges)
        self._m_predictions.inc(len(nodes))
        return out, stats

    def predict_one(self, node: int) -> np.ndarray:
        """Single-request convenience path (a batch of one)."""
        out, _ = self.predict_batch([node])
        return out[0]

    def __repr__(self) -> str:
        return (
            f"ServeEngine(n_nodes={self.n_nodes}, fanouts={self.fanouts}, "
            f"epoch={self.epoch})"
        )
