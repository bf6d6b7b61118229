"""Fanout-based neighbor sampling producing training batches.

A *batch* in the paper is "a sampling subgraph": starting from a set of
output (seed) nodes, each layer samples up to ``fanout`` in-neighbors per
node from the full graph.  The result is a compact subgraph whose rows hold
the sampled neighbor lists; block generation (baseline or Buffalo's fast
path) later walks this subgraph layer by layer.

Sampling is without replacement and vectorized by grouping nodes of equal
degree, so million-edge graphs sample in well under a second on one core.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import INDEX_DTYPE, rng_from
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.subgraph import _ragged_gather, unique_ids


def sample_neighbors(
    graph: CSRGraph,
    nodes: np.ndarray,
    fanout: int | None,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` in-neighbors of each node, without replacement.

    Args:
        graph: full graph.
        nodes: node ids to sample for (may repeat; each occurrence sampled
            independently for degree <= fanout rows the full row is taken).
        fanout: per-node cap; ``None`` means take all neighbors.
        rng: seed or generator.

    Returns:
        ``(indptr, flat)``: ``flat[indptr[i]:indptr[i+1]]`` holds the sorted
        sampled neighbors of ``nodes[i]``.
    """
    rng = rng_from(rng)
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    deg = graph.degrees[nodes]
    if fanout is None:
        out_len = deg.copy()
    else:
        if fanout <= 0:
            raise GraphError(f"fanout must be positive or None, got {fanout}")
        out_len = np.minimum(deg, fanout)

    indptr = np.zeros(nodes.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(out_len, out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)

    starts = graph.indptr[nodes]
    if fanout is None:
        whole = np.ones(nodes.size, dtype=bool)
    else:
        whole = deg <= fanout

    # Rows taken whole: one vectorized ragged gather.
    if np.any(whole):
        w_len = out_len[whole]
        gathered = _ragged_gather(graph.indices, starts[whole], w_len)
        w_indptr = indptr[:-1][whole]
        dest = (
            np.repeat(w_indptr, w_len)
            + np.arange(int(w_len.sum()), dtype=INDEX_DTYPE)
            - np.repeat(np.cumsum(w_len) - w_len, w_len)
        )
        flat[dest] = gathered

    # Rows needing subsampling: vectorize per distinct degree class.
    big_idx = np.flatnonzero(~whole)
    if big_idx.size:
        big_deg = deg[big_idx]
        for d in unique_ids(big_deg, int(big_deg.max()) + 1):
            sel = big_idx[big_deg == d]
            rows = graph.indices[
                starts[sel][:, None] + np.arange(int(d), dtype=INDEX_DTYPE)
            ]
            keys = rng.random((sel.size, int(d)))
            pick = np.argpartition(keys, fanout - 1, axis=1)[:, :fanout]
            sampled = np.take_along_axis(rows, pick, axis=1)
            sampled.sort(axis=1)
            dest = indptr[:-1][sel][:, None] + np.arange(
                fanout, dtype=INDEX_DTYPE
            )
            flat[dest] = sampled

    return indptr, flat


@dataclass
class SampledBatch:
    """A sampled training batch (the paper's "sampling subgraph").

    Attributes:
        graph: subgraph in local ids; row ``v`` holds the sampled
            in-neighbors of local node ``v`` (empty for input-layer leaves).
        node_map: local id -> global id; seeds occupy locals ``0..n_seeds``.
        n_seeds: number of output nodes; locals ``0..n_seeds-1`` are seeds.
        fanouts: per-layer fanouts, index 0 = output layer.
        expanded: boolean mask over locals — True when the node's row was
            sampled (False for leaves at the input frontier).
    """

    graph: CSRGraph
    node_map: np.ndarray
    n_seeds: int
    fanouts: tuple[int | None, ...]
    expanded: np.ndarray = field(repr=False)

    @property
    def seeds_local(self) -> np.ndarray:
        """Local ids of the output nodes."""
        return np.arange(self.n_seeds, dtype=INDEX_DTYPE)

    @property
    def seeds_global(self) -> np.ndarray:
        """Global ids of the output nodes."""
        return self.node_map[: self.n_seeds]

    @property
    def n_layers(self) -> int:
        """Aggregation depth of the batch."""
        return len(self.fanouts)

    @property
    def n_nodes(self) -> int:
        """Total nodes in the batch subgraph."""
        return self.graph.n_nodes

def sample_batch(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: list[int | None] | tuple[int | None, ...],
    rng: np.random.Generator | int | None = None,
) -> SampledBatch:
    """Sample an ``L``-layer batch from ``graph`` starting at ``seeds``.

    ``fanouts[0]`` applies to the output layer, ``fanouts[-1]`` to the
    input layer.  Each node's neighbor row is sampled once, at its first
    (outermost) encounter, matching the paper's subgraph view of a batch.

    Returns a :class:`SampledBatch` whose locals put the seeds first (in
    the given order) followed by interior nodes in discovery order.
    """
    rng = rng_from(rng)
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    if seeds.size == 0:
        raise GraphError("cannot sample a batch with no seeds")
    lookup = np.full(graph.n_nodes, -1, dtype=INDEX_DTYPE)
    seed_locals = np.arange(seeds.size, dtype=INDEX_DTYPE)
    lookup[seeds] = seed_locals
    # A repeated seed is overwritten by its last occurrence.
    if not np.array_equal(lookup[seeds], seed_locals):
        raise GraphError("seed nodes must be unique")
    fanouts = tuple(fanouts)
    if not fanouts:
        raise GraphError("fanouts must contain at least one layer")
    node_map_parts: list[np.ndarray] = [seeds]
    n_local = seeds.size

    # Per expansion wave: (local ids expanded, row lengths, flat globals).
    waves: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    expanded_flags: list[np.ndarray] = []

    frontier_global = seeds
    for fanout in fanouts:
        if frontier_global.size == 0:
            break
        indptr, flat = sample_neighbors(graph, frontier_global, fanout, rng)
        waves.append((lookup[frontier_global].copy(), np.diff(indptr), flat))

        new_globals = unique_ids(flat[lookup[flat] < 0], graph.n_nodes)
        lookup[new_globals] = np.arange(
            n_local, n_local + new_globals.size, dtype=INDEX_DTYPE
        )
        n_local += new_globals.size
        node_map_parts.append(new_globals)
        frontier_global = new_globals

    node_map = np.concatenate(node_map_parts)
    expanded = np.zeros(n_local, dtype=bool)

    # Assemble the local CSR: counts per local id, then scatter each wave.
    counts = np.zeros(n_local, dtype=INDEX_DTYPE)
    for locals_, lengths, _ in waves:
        counts[locals_] = lengths
        expanded[locals_] = True
    sub_indptr = np.zeros(n_local + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=sub_indptr[1:])
    sub_indices = np.empty(int(sub_indptr[-1]), dtype=INDEX_DTYPE)
    for locals_, lengths, flat in waves:
        if flat.size == 0:
            continue
        dest = (
            np.repeat(sub_indptr[locals_], lengths)
            + np.arange(int(lengths.sum()), dtype=INDEX_DTYPE)
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        )
        sub_indices[dest] = lookup[flat]

    # Rows were sorted in global-id order; re-sort within each row by
    # local id so binary-search lookups on the subgraph stay valid: one
    # sort of the int64 key row * n_local + local id.
    if sub_indices.size:
        row_base = np.repeat(np.arange(n_local, dtype=INDEX_DTYPE), counts)
        row_base *= n_local
        keys = row_base + sub_indices
        keys.sort()
        sub_indices = keys - row_base

    sub = CSRGraph(sub_indptr, sub_indices, validate=False)
    return SampledBatch(
        graph=sub,
        node_map=node_map,
        n_seeds=int(seeds.size),
        fanouts=fanouts,
        expanded=expanded,
    )
