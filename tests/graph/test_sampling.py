"""Unit and property tests for neighbor sampling and batch construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import from_edge_list, sample_batch, sample_neighbors


def star(n_leaves: int = 20):
    """Node 0 aggregates from n_leaves leaves."""
    src = list(range(1, n_leaves + 1))
    dst = [0] * n_leaves
    return from_edge_list(src, dst)


def random_graph(n=80, m=600, seed=0):
    rng = np.random.default_rng(seed)
    return from_edge_list(
        rng.integers(0, n, m), rng.integers(0, n, m), n_nodes=n
    )


class TestSampleNeighbors:
    def test_full_row_when_degree_below_fanout(self):
        g = star(5)
        indptr, flat = sample_neighbors(g, np.array([0]), 10, rng=0)
        assert list(indptr) == [0, 5]
        assert sorted(flat) == [1, 2, 3, 4, 5]

    def test_caps_at_fanout(self):
        g = star(20)
        indptr, flat = sample_neighbors(g, np.array([0]), 7, rng=0)
        assert list(indptr) == [0, 7]
        assert len(set(flat)) == 7  # without replacement

    def test_sampled_are_real_neighbors(self):
        g = random_graph()
        nodes = np.arange(g.n_nodes)
        indptr, flat = sample_neighbors(g, nodes, 3, rng=1)
        for i, v in enumerate(nodes):
            row = set(int(x) for x in g.neighbors(int(v)))
            for u in flat[indptr[i] : indptr[i + 1]]:
                assert int(u) in row

    def test_fanout_none_takes_all(self):
        g = star(9)
        indptr, flat = sample_neighbors(g, np.array([0]), None, rng=0)
        assert list(indptr) == [0, 9]

    def test_deterministic_with_seed(self):
        g = star(50)
        a = sample_neighbors(g, np.array([0]), 5, rng=42)
        b = sample_neighbors(g, np.array([0]), 5, rng=42)
        assert np.array_equal(a[1], b[1])

    def test_rows_sorted(self):
        g = star(50)
        _, flat = sample_neighbors(g, np.array([0]), 10, rng=3)
        assert list(flat) == sorted(flat)

    def test_zero_degree_node(self):
        g = star(3)
        indptr, flat = sample_neighbors(g, np.array([1]), 5, rng=0)
        assert list(indptr) == [0, 0]
        assert flat.size == 0

    def test_invalid_fanout_raises(self):
        with pytest.raises(GraphError):
            sample_neighbors(star(3), np.array([0]), 0)

    def test_unbiased_ish(self):
        # Every leaf of a star should be picked roughly equally often.
        g = star(10)
        counts = np.zeros(11)
        rng = np.random.default_rng(0)
        for _ in range(400):
            _, flat = sample_neighbors(g, np.array([0]), 3, rng=rng)
            counts[flat] += 1
        picked = counts[1:]
        assert picked.min() > 0.5 * picked.mean()
        assert picked.max() < 1.5 * picked.mean()


class TestSampleBatch:
    def test_seeds_come_first(self):
        g = random_graph()
        batch = sample_batch(g, np.array([7, 3, 9]), [2, 2], rng=0)
        assert list(batch.seeds_global) == [7, 3, 9]
        assert batch.n_seeds == 3
        assert batch.n_layers == 2

    def test_node_map_unique(self):
        g = random_graph()
        batch = sample_batch(g, np.arange(10), [3, 3], rng=0)
        assert len(np.unique(batch.node_map)) == batch.node_map.size

    def test_rows_are_subsets_of_true_neighbors(self):
        g = random_graph()
        batch = sample_batch(g, np.arange(10), [3, 3], rng=0)
        for local in range(batch.n_nodes):
            glob = int(batch.node_map[local])
            true = set(int(x) for x in g.neighbors(glob))
            for u_local in batch.graph.neighbors(local):
                assert int(batch.node_map[u_local]) in true

    def test_leaves_not_expanded(self):
        g = from_edge_list([0, 1, 2, 3], [1, 2, 3, 4])
        batch = sample_batch(g, np.array([4]), [1, 1], rng=0)
        # Node 2 (global) is the input-layer leaf: present but unexpanded.
        leaf_local = int(np.flatnonzero(batch.node_map == 2)[0])
        assert not batch.expanded[leaf_local]
        assert batch.graph.degree(leaf_local) == 0

    def test_depth_limited(self):
        g = from_edge_list([0, 1, 2, 3], [1, 2, 3, 4])
        batch = sample_batch(g, np.array([4]), [1], rng=0)
        assert set(batch.node_map.tolist()) == {4, 3}

    def test_fanout_respected_per_layer(self):
        g = random_graph(n=60, m=2000, seed=2)
        batch = sample_batch(g, np.arange(5), [2, 4], rng=0)
        for s in range(batch.n_seeds):
            assert batch.graph.degree(s) <= 2

    def test_duplicate_seeds_raise(self):
        with pytest.raises(GraphError):
            sample_batch(random_graph(), np.array([1, 1]), [2])

    @pytest.mark.parametrize(
        "seeds", [[0, 5, 9, 5], [79, 0, 1, 79], [2, 2, 2]]
    )
    def test_repeated_seed_anywhere_raises(self, seeds):
        # Uniqueness is read back from the seed lookup table: the last
        # occurrence of a repeated seed overwrites the first one's slot.
        with pytest.raises(GraphError, match="seed nodes must be unique"):
            sample_batch(random_graph(), np.array(seeds), [2])

    def test_empty_seeds_raise(self):
        with pytest.raises(GraphError):
            sample_batch(random_graph(), np.array([], dtype=np.int64), [2])

    def test_empty_fanouts_raise(self):
        with pytest.raises(GraphError):
            sample_batch(random_graph(), np.array([0]), [])

    def test_deterministic(self):
        g = random_graph()
        b1 = sample_batch(g, np.arange(8), [3, 3], rng=5)
        b2 = sample_batch(g, np.arange(8), [3, 3], rng=5)
        assert b1.graph == b2.graph
        assert np.array_equal(b1.node_map, b2.node_map)

    def test_batch_rows_sorted_locally(self):
        g = random_graph(n=100, m=3000, seed=9)
        batch = sample_batch(g, np.arange(20), [4, 4], rng=1)
        for v in range(batch.n_nodes):
            row = batch.graph.neighbors(v)
            assert list(row) == sorted(row)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 40),
    m=st.integers(10, 300),
    fanout=st.integers(1, 6),
    layers=st.integers(1, 3),
    seed=st.integers(0, 1000),
)
def test_sample_batch_invariants(n, m, fanout, layers, seed):
    rng = np.random.default_rng(seed)
    g = from_edge_list(
        rng.integers(0, n, m), rng.integers(0, n, m), n_nodes=n
    )
    n_seeds = min(3, n)
    batch = sample_batch(g, np.arange(n_seeds), [fanout] * layers, rng=seed)

    # Invariant 1: locals are dense and node_map is injective.
    assert batch.node_map.size == batch.graph.n_nodes
    assert len(np.unique(batch.node_map)) == batch.node_map.size

    # Invariant 2: every expanded node's degree respects some fanout cap.
    assert batch.graph.degrees.max(initial=0) <= fanout

    # Invariant 3: every edge maps to a true edge in the full graph.
    for v in range(batch.n_nodes):
        gv = int(batch.node_map[v])
        for u in batch.graph.neighbors(v):
            assert g.has_edge(int(batch.node_map[u]), gv)

    # Invariant 4: unexpanded nodes have empty rows.
    assert np.all(batch.graph.degrees[~batch.expanded] == 0)
