"""Block generation.

:func:`assemble_blocks` is the shared frontier walk that turns per-node
neighbor rows into a chained list of :class:`~repro.gnn.block.Block`
objects (input-most first).

:func:`generate_blocks_baseline` is the *slow* row collector modeling the
existing systems' approach (paper §III, Fig. 5/12): for every destination
node it walks the node's full-graph neighbor list and re-checks, edge by
edge, whether that neighbor was selected by sampling — a per-edge
membership probe executed serially per micro-batch.  Buffalo's fast
counterpart (vectorized CSR row slicing over the already-sampled
subgraph) lives in :mod:`repro.core.fastblock`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.config import INDEX_DTYPE
from repro.errors import GraphError
from repro.gnn.block import Block
from repro.graph.csr import CSRGraph
from repro.graph.sampling import SampledBatch
from repro.graph.subgraph import unique_ids

RowFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def assemble_blocks(
    n_nodes: int,
    seeds_local: np.ndarray,
    row_fn: RowFn,
    n_layers: int,
) -> list[Block]:
    """Walk frontiers from ``seeds_local`` inward, building chained blocks.

    Args:
        n_nodes: size of the node universe the ids are drawn from (a
            batch's ``n_nodes``, or a graph's for full-neighbor blocks).
        seeds_local: ids of the output nodes.
        row_fn: maps an array of node ids to their neighbor rows
            ``(indptr, flat)`` in the same id space.
        n_layers: number of blocks to build.

    Returns:
        Blocks input-most first; ``blocks[-1].dst_nodes == seeds_local``.
    """
    seeds_local = np.asarray(seeds_local, dtype=INDEX_DTYPE)
    if seeds_local.size == 0:
        raise GraphError("cannot build blocks for an empty seed set")

    position = np.full(n_nodes, -1, dtype=INDEX_DTYPE)
    blocks_reversed: list[Block] = []
    frontier = seeds_local

    for _ in range(n_layers):
        indptr, flat = row_fn(frontier)
        position[frontier] = np.arange(frontier.size, dtype=INDEX_DTYPE)
        new_nodes = unique_ids(flat[position[flat] < 0], n_nodes)
        position[new_nodes] = np.arange(
            frontier.size, frontier.size + new_nodes.size, dtype=INDEX_DTYPE
        )
        src_nodes = np.concatenate([frontier, new_nodes])
        indices = position[flat] if flat.size else flat
        blocks_reversed.append(
            Block(
                src_nodes=src_nodes,
                dst_nodes=frontier,
                indptr=indptr,
                indices=indices,
            )
        )
        # Reset for the next layer (position is reused as scratch).
        position[src_nodes] = -1
        frontier = src_nodes

    return blocks_reversed[::-1]


def generate_blocks_baseline(
    full_graph: CSRGraph,
    batch: SampledBatch,
    seeds_local: np.ndarray | None = None,
    *,
    n_layers: int | None = None,
    profiler=None,
) -> list[Block]:
    """Connection-check block generation (the Betty/DGL-style slow path).

    For every destination node, iterates its neighbor list in the
    *original* graph and probes, one edge at a time, whether the sampled
    subgraph kept that edge.  This is the per-edge "connection check" the
    paper identifies as the dominant data-preparation cost; it is
    intentionally a serial Python loop over edges.

    When ``profiler`` (a :class:`~repro.device.profiler.Profiler`) is
    given, the per-edge probing is recorded as ``connection_check`` and
    the block assembly as ``block_construction`` — the two phases Fig. 11
    reports separately.
    """
    import time as _time

    if seeds_local is None:
        seeds_local = batch.seeds_local
    if n_layers is None:
        n_layers = batch.n_layers
    node_map = batch.node_map
    sub = batch.graph
    local_of = np.full(full_graph.n_nodes, -1, dtype=INDEX_DTYPE)
    local_of[node_map] = np.arange(batch.n_nodes, dtype=INDEX_DTYPE)

    check_seconds = 0.0

    def row_fn(frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal check_seconds
        check_start = _time.perf_counter()
        rows: list[list[int]] = []
        for v_local in frontier:
            v_local = int(v_local)
            v_global = int(node_map[v_local])
            sampled_set = {
                int(node_map[u]) for u in sub.neighbors(v_local)
            }
            selected: list[int] = []
            # Walk the ORIGINAL neighbor list and re-confirm each edge
            # against the sampled subgraph (membership probe per edge).
            for u_global in full_graph.neighbors(v_global):
                u_global = int(u_global)
                if u_global in sampled_set:
                    selected.append(int(local_of[u_global]))
            selected.sort()
            rows.append(selected)
        check_seconds += _time.perf_counter() - check_start
        lengths = np.array([len(r) for r in rows], dtype=INDEX_DTYPE)
        indptr = np.zeros(frontier.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        flat = (
            np.concatenate([np.asarray(r, dtype=INDEX_DTYPE) for r in rows])
            if rows and indptr[-1] > 0
            else np.empty(0, dtype=INDEX_DTYPE)
        )
        return indptr, flat

    start = _time.perf_counter()
    blocks = assemble_blocks(batch.n_nodes, seeds_local, row_fn, n_layers)
    if profiler is not None:
        total = _time.perf_counter() - start
        check_record = profiler._record("connection_check")
        check_record.wall_s += check_seconds
        check_record.count += 1
        build_record = profiler._record("block_construction")
        build_record.wall_s += max(total - check_seconds, 0.0)
        build_record.count += 1
    return blocks
