"""Induced subgraphs and k-hop neighborhood queries."""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def _ragged_gather(
    indices: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Gather ``indices[starts[i] : starts[i] + lengths[i]]`` for all i, flat.

    This is the vectorized replacement for a per-row Python loop and is the
    workhorse behind Buffalo's node-level-parallel block generation.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.zeros(lengths.size, dtype=INDEX_DTYPE)
    np.cumsum(lengths[:-1], out=offsets[1:])
    flat_pos = (
        np.repeat(starts - offsets, lengths)
        + np.arange(total, dtype=INDEX_DTYPE)
    )
    return indices[flat_pos]


def gather_rows(graph: CSRGraph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(indptr, flat)`` of the neighbor rows of ``nodes``.

    ``flat[indptr[i]:indptr[i+1]]`` is the (full, unsampled) neighbor list
    of ``nodes[i]``.
    """
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    lengths = graph.degrees[nodes]
    indptr = np.zeros(nodes.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=indptr[1:])
    flat = _ragged_gather(graph.indices, graph.indptr[nodes], lengths)
    return indptr, flat


def unique_ids(ids: np.ndarray, universe: int) -> np.ndarray:
    """Sorted distinct values of ``ids``, all of which lie in ``[0, universe)``.

    Byte-equal to ``np.unique(ids)`` (values, ``INDEX_DTYPE``, ascending
    order) for ids in range; an id ``>= universe`` raises ``IndexError``.
    One bool mark over the universe replaces the sort, so the cost is
    O(len(ids) + universe) with the mark as the only scratch.  The
    frontier walks pass one graph's ``n_nodes`` or one block's
    ``n_src``, against which a hop's duplicate-heavy frontier is large.
    """
    mark = np.zeros(universe, dtype=bool)
    mark[ids] = True
    return np.flatnonzero(mark).astype(INDEX_DTYPE, copy=False)


def khop_in_nodes(graph: CSRGraph, seeds: np.ndarray, hops: int) -> np.ndarray:
    """All nodes reachable from ``seeds`` within ``hops`` reverse edges.

    Includes the seeds themselves.  Returned sorted ascending.
    """
    if hops < 0:
        raise GraphError("hops must be non-negative")
    seen = np.zeros(graph.n_nodes, dtype=bool)
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    seen[seeds] = True
    frontier = seeds
    for _ in range(hops):
        if frontier.size == 0:
            break
        _, flat = gather_rows(graph, frontier)
        frontier = unique_ids(flat[~seen[flat]], graph.n_nodes)
        seen[frontier] = True
    return np.flatnonzero(seen).astype(INDEX_DTYPE)


def induced_subgraph(
    graph: CSRGraph, nodes: np.ndarray
) -> tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``nodes``.

    Returns ``(sub, node_map)`` where ``node_map[local] == global`` and
    ``sub`` keeps only edges with both endpoints in ``nodes``.
    """
    nodes = np.unique(np.asarray(nodes, dtype=INDEX_DTYPE))
    lookup = np.full(graph.n_nodes, -1, dtype=INDEX_DTYPE)
    lookup[nodes] = np.arange(nodes.size, dtype=INDEX_DTYPE)

    indptr, flat = gather_rows(graph, nodes)
    local_flat = lookup[flat]
    keep = local_flat >= 0
    row_sizes = np.diff(indptr)
    lengths = np.zeros(nodes.size, dtype=INDEX_DTYPE)
    if flat.size:
        seg_ids = np.repeat(np.arange(nodes.size), row_sizes)
        np.add.at(lengths, seg_ids, keep.astype(INDEX_DTYPE))

    sub_indptr = np.zeros(nodes.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=sub_indptr[1:])
    sub_indices = local_flat[keep]
    return CSRGraph(sub_indptr, sub_indices, validate=False), nodes
