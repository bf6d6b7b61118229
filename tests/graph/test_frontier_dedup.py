"""The frontier-dedup primitive and every walk routed through it.

``unique_ids`` must be byte-equal to ``np.unique`` (values, dtype,
order) for ids inside its universe.  The differential half pins the
rewired walks — ``sample_batch``, ``assemble_blocks``,
``group_input_nodes``, ``khop_in_nodes`` — against test-local copies of
their sort-based predecessors, array for array and dtype for dtype.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import INDEX_DTYPE
from repro.core.scheduler import group_input_nodes
from repro.gnn.block_gen import assemble_blocks
from repro.graph import from_edge_list, khop_in_nodes, sample_batch
from repro.graph.subgraph import _ragged_gather, gather_rows, unique_ids


def _assert_same(actual, expected):
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------
class TestUniqueIds:
    def test_empty(self):
        _assert_same(
            unique_ids(np.empty(0, dtype=INDEX_DTYPE), 10),
            np.unique(np.empty(0, dtype=INDEX_DTYPE)),
        )

    def test_empty_universe(self):
        _assert_same(
            unique_ids(np.empty(0, dtype=INDEX_DTYPE), 0),
            np.empty(0, dtype=INDEX_DTYPE),
        )

    def test_all_duplicates(self):
        ids = np.full(50, 7, dtype=INDEX_DTYPE)
        _assert_same(unique_ids(ids, 8), np.unique(ids))

    def test_universe_edges(self):
        ids = np.array([9, 0, 9, 0, 4], dtype=INDEX_DTYPE)
        _assert_same(unique_ids(ids, 10), np.unique(ids))

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            unique_ids(np.array([10], dtype=INDEX_DTYPE), 10)

    @settings(max_examples=200, deadline=None)
    @given(
        universe=st.integers(1, 500),
        data=st.data(),
    )
    def test_matches_np_unique(self, universe, data):
        ids = np.asarray(
            data.draw(st.lists(st.integers(0, universe - 1), max_size=300)),
            dtype=INDEX_DTYPE,
        )
        _assert_same(unique_ids(ids, universe), np.unique(ids))

    @settings(max_examples=50, deadline=None)
    @given(
        universe=st.integers(1, 5000),
        size=st.integers(0, 20000),
        exponent=st.floats(1.2, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_np_unique_on_power_law_frontiers(
        self, universe, size, exponent, seed
    ):
        # A sampled frontier: hub ids repeat many times, the tail once.
        rng = np.random.default_rng(seed)
        ids = ((rng.zipf(exponent, size) - 1) % universe).astype(INDEX_DTYPE)
        rng.shuffle(ids)
        _assert_same(unique_ids(ids, universe), np.unique(ids))


# ----------------------------------------------------------------------
# Sort-based predecessors of the rewired walks (test-local copies)
# ----------------------------------------------------------------------
def sort_sample_neighbors(graph, nodes, fanout, rng):
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    deg = graph.degrees[nodes]
    out_len = deg.copy() if fanout is None else np.minimum(deg, fanout)
    indptr = np.zeros(nodes.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(out_len, out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    starts = graph.indptr[nodes]
    whole = np.ones(nodes.size, dtype=bool) if fanout is None else deg <= fanout
    if np.any(whole):
        w_len = out_len[whole]
        gathered = _ragged_gather(graph.indices, starts[whole], w_len)
        dest = (
            np.repeat(indptr[:-1][whole], w_len)
            + np.arange(int(w_len.sum()), dtype=INDEX_DTYPE)
            - np.repeat(np.cumsum(w_len) - w_len, w_len)
        )
        flat[dest] = gathered
    big_idx = np.flatnonzero(~whole)
    if big_idx.size:
        big_deg = deg[big_idx]
        for d in np.unique(big_deg):
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


def sort_sample_batch(graph, seeds, fanouts, seed):
    """Returns ``(node_map, indptr, indices, expanded)``."""
    rng = np.random.default_rng(seed)
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    lookup = np.full(graph.n_nodes, -1, dtype=INDEX_DTYPE)
    lookup[seeds] = np.arange(seeds.size, dtype=INDEX_DTYPE)
    parts = [seeds]
    n_local = seeds.size
    waves = []
    frontier = seeds
    for fanout in fanouts:
        if frontier.size == 0:
            break
        indptr, flat = sort_sample_neighbors(graph, frontier, fanout, rng)
        waves.append((lookup[frontier].copy(), np.diff(indptr), flat))
        new = np.unique(flat)
        new = new[lookup[new] < 0]
        lookup[new] = np.arange(n_local, n_local + new.size, dtype=INDEX_DTYPE)
        n_local += new.size
        parts.append(new)
        frontier = new
    node_map = np.concatenate(parts)
    expanded = np.zeros(n_local, dtype=bool)
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
    if sub_indices.size:
        row_ids = np.repeat(np.arange(n_local, dtype=INDEX_DTYPE), counts)
        sub_indices = sub_indices[np.lexsort((sub_indices, row_ids))]
    return node_map, sub_indptr, sub_indices, expanded


def sort_assemble_blocks(n_nodes, seeds, row_fn, n_layers):
    position = np.full(n_nodes, -1, dtype=INDEX_DTYPE)
    blocks = []
    frontier = np.asarray(seeds, dtype=INDEX_DTYPE)
    for _ in range(n_layers):
        indptr, flat = row_fn(frontier)
        position[frontier] = np.arange(frontier.size, dtype=INDEX_DTYPE)
        new = np.unique(flat)
        new = new[position[new] < 0]
        position[new] = np.arange(
            frontier.size, frontier.size + new.size, dtype=INDEX_DTYPE
        )
        src = np.concatenate([frontier, new])
        indices = position[flat] if flat.size else flat
        blocks.append((src, frontier, indptr, indices))
        position[src] = -1
        frontier = src
    return blocks[::-1]


def sort_group_input_nodes(blocks, rows):
    rows = np.unique(np.asarray(rows, dtype=INDEX_DTYPE))
    for block in reversed(blocks):
        degrees = block.indptr[rows + 1] - block.indptr[rows]
        if degrees.sum() > 0:
            positions = _ragged_gather(
                block.indices, block.indptr[rows], degrees
            )
            rows = np.unique(np.concatenate([rows, positions]))
    return blocks[0].src_nodes[rows]


def sort_khop_in_nodes(graph, seeds, hops):
    seen = np.zeros(graph.n_nodes, dtype=bool)
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    seen[seeds] = True
    frontier = seeds
    for _ in range(hops):
        if frontier.size == 0:
            break
        _, flat = gather_rows(graph, frontier)
        new = np.unique(flat)
        new = new[~seen[new]]
        seen[new] = True
        frontier = new
    return np.flatnonzero(seen).astype(INDEX_DTYPE)


# ----------------------------------------------------------------------
# Differential: rewired walks == sort-based walks
# ----------------------------------------------------------------------
def _graph(n, m, seed):
    """Random multigraph on ``n`` nodes whose last quarter has no
    in-edges (degree-0 rows) and whose seeds have self loops, so seeds
    reappear inside their own frontier."""
    rng = np.random.default_rng(seed)
    sinks = max(1, (3 * n) // 4)
    src = np.concatenate([rng.integers(0, n, m), np.arange(4)])
    dst = np.concatenate([rng.integers(0, sinks, m), np.arange(4)])
    return from_edge_list(src % n, dst % n, n_nodes=n)


_walk_cases = given(
    n=st.integers(8, 120),
    m=st.integers(0, 1500),
    layers=st.integers(1, 3),
    fanout=st.integers(1, 8),
    n_seeds=st.integers(1, 8),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=60, deadline=None)
@_walk_cases
def test_sample_batch_matches_sort_based(n, m, layers, fanout, n_seeds, seed):
    g = _graph(n, m, seed)
    seeds = np.random.default_rng(seed).permutation(n)[: min(n_seeds, n)]
    fanouts = [fanout + i for i in range(layers)]  # non-decreasing inward
    batch = sample_batch(g, seeds, fanouts, rng=seed)
    node_map, indptr, indices, expanded = sort_sample_batch(
        g, seeds, fanouts, seed
    )
    _assert_same(batch.node_map, node_map)
    _assert_same(batch.graph.indptr, indptr)
    _assert_same(batch.graph.indices, indices)
    _assert_same(batch.expanded, expanded)


@settings(max_examples=60, deadline=None)
@_walk_cases
def test_block_walks_match_sort_based(n, m, layers, fanout, n_seeds, seed):
    g = _graph(n, m, seed)
    seeds = np.random.default_rng(seed).permutation(n)[: min(n_seeds, n)]
    batch = sample_batch(g, seeds, [fanout] * layers, rng=seed)

    def row_fn(frontier):
        return gather_rows(batch.graph, frontier)

    # A random subset of the seeds, in random order: a bucket group.
    rng = np.random.default_rng(seed + 1)
    seeds_local = rng.permutation(batch.n_seeds)[
        : int(rng.integers(1, batch.n_seeds + 1))
    ]
    blocks = assemble_blocks(batch.n_nodes, seeds_local, row_fn, layers)
    expected = sort_assemble_blocks(batch.n_nodes, seeds_local, row_fn, layers)
    assert len(blocks) == len(expected)
    for block, (src, dst, indptr, indices) in zip(blocks, expected):
        _assert_same(block.src_nodes, src)
        _assert_same(block.dst_nodes, dst)
        _assert_same(block.indptr, indptr)
        _assert_same(block.indices, indices)

    # Output rows with repeats: the planner's reachability walk.
    rows = rng.integers(0, seeds_local.size, 2 * seeds_local.size)
    _assert_same(
        group_input_nodes(blocks, rows), sort_group_input_nodes(blocks, rows)
    )
    _assert_same(
        khop_in_nodes(g, seeds, layers), sort_khop_in_nodes(g, seeds, layers)
    )
