import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.dsf import DisjointSetForest


def process_edges_oracle(parent: np.ndarray, us, vs):
    """Oracle: Algorithm 1 indexing the ndarray directly, re-verifying
    buffered edges with the same path-splitting find.  Mutates ``parent``;
    returns ``(n_unions, n_find_steps, n_iterations)``."""

    def find(x):
        find_steps = 0
        while True:
            px = parent[x]
            if px == x:
                return int(x), find_steps
            ppx = parent[px]
            if ppx == px:
                return int(px), find_steps
            parent[x] = ppx
            x = px
            find_steps += 1

    n_unions = find_steps = iterations = 0
    e_in = list(zip(np.asarray(us).tolist(), np.asarray(vs).tolist()))
    while e_in:
        iterations += 1
        e_out = []
        for u, v in e_in:
            root_u, steps_u = find(u)
            root_v, steps_v = find(v)
            find_steps += steps_u + steps_v
            if root_u != root_v:
                parent[min(root_u, root_v)] = max(root_u, root_v)
                n_unions += 1
                e_out.append((u, v))
        e_in = [(u, v) for u, v in e_out if find(u)[0] != find(v)[0]]
    return n_unions, find_steps, iterations


@st.composite
def forest_and_edges(draw):
    """A fresh or pre-merged forest plus an edge list over its vertices."""
    n = draw(st.integers(1, 60))
    vertex = st.integers(0, n - 1)
    pre = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=120))
    forest = DisjointSetForest(n)
    if pre:
        forest.process_edges(*np.array(pre, dtype=np.int64).T)
    us, vs = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    return forest.parent.copy(), us, vs


@settings(max_examples=150, deadline=None)
@given(forest_and_edges())
def test_process_edges_equals_ndarray_oracle(case):
    parent, us, vs = case
    expected = parent.copy()
    counters = process_edges_oracle(expected, us, vs)
    # wrap adopts the array: Algorithm 1 must mutate it in place
    forest = DisjointSetForest.wrap(parent)
    assert forest.parent is parent
    assert forest.process_edges(us, vs) == counters
    assert np.array_equal(parent, expected)


class TestBasicOps:
    def test_initial_singletons(self):
        f = DisjointSetForest(5)
        assert f.n_components() == 5
        for v in range(5):
            assert f.find(v) == v

    def test_union_by_index_lower_under_higher(self):
        f = DisjointSetForest(4)
        survivor = f.union(1, 3)
        assert survivor == 3
        assert f.parent[1] == 3
        assert f.find(1) == 3

    def test_union_same_root_noop(self):
        f = DisjointSetForest(3)
        assert f.union(2, 2) == 2
        assert f.n_components() == 3

    def test_connected(self):
        f = DisjointSetForest(4)
        f.process_edges(np.array([0]), np.array([1]))
        assert f.connected(0, 1)
        assert not f.connected(0, 2)

    def test_zero_vertices(self):
        f = DisjointSetForest(0)
        assert f.n_components() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DisjointSetForest(-1)


class TestPathSplitting:
    def test_find_shortens_paths(self):
        f = DisjointSetForest(5)
        # hand-build a chain 0 -> 1 -> 2 -> 3 -> 4
        f.parent[:] = [1, 2, 3, 4, 4]
        root = f.find(0)
        assert root == 4
        # path splitting: 0 and 1 now point at their grandparents
        assert f.parent[0] >= 2
        assert f.parent[1] >= 3


class TestProcessEdges:
    def test_matches_reference_components(self, rng):
        n = 60
        edges = rng.integers(0, n, size=(120, 2))
        f = DisjointSetForest(n)
        f.process_edges(edges[:, 0], edges[:, 1])

        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(map(tuple, edges))
        ref = {frozenset(c) for c in nx.connected_components(g)}
        got = {}
        for v in range(n):
            got.setdefault(f.find(v), set()).add(v)
        assert {frozenset(c) for c in got.values()} == ref

    def test_converges_in_two_iterations_uncontended(self):
        f = DisjointSetForest(10)
        us = np.arange(9)
        vs = np.arange(1, 10)
        unions, _, iterations = f.process_edges(us, vs)
        assert unions == 9
        assert iterations <= 2

    def test_union_count(self):
        f = DisjointSetForest(4)
        unions, _, _ = f.process_edges(
            np.array([0, 1, 0]), np.array([1, 2, 2])
        )
        assert unions == 2  # third edge redundant

    def test_mismatched_arrays_rejected(self):
        f = DisjointSetForest(4)
        with pytest.raises(ValueError):
            f.process_edges(np.array([0, 1]), np.array([1]))

    def test_empty_edge_list(self):
        f = DisjointSetForest(4)
        assert f.process_edges(np.array([]), np.array([])) == (0, 0, 0)

    def test_no_cycles_created(self, rng):
        """Union-by-index guarantees acyclic parent chains."""
        n = 40
        f = DisjointSetForest(n)
        edges = rng.integers(0, n, size=(100, 2))
        f.process_edges(edges[:, 0], edges[:, 1])
        # every chain must terminate within n steps
        for v in range(n):
            x, steps = v, 0
            while f.parent[x] != x:
                x = int(f.parent[x])
                steps += 1
                assert steps <= n, "cycle detected"


class TestVectorizedFind:
    def test_find_many_matches_scalar(self, rng):
        n = 50
        f = DisjointSetForest(n)
        edges = rng.integers(0, n, size=(80, 2))
        f.process_edges(edges[:, 0], edges[:, 1])
        xs = np.arange(n)
        vec = f.find_many(xs)
        scalar = np.array([f.find(int(v)) for v in xs])
        assert np.array_equal(vec, scalar)

    def test_find_many_compress(self):
        f = DisjointSetForest(4)
        f.parent[:] = [1, 2, 3, 3]
        roots = f.find_many(np.array([0]), compress=True)
        assert roots[0] == 3
        assert f.parent[0] == 3

    def test_roots_idempotent(self, rng):
        n = 30
        f = DisjointSetForest(n)
        edges = rng.integers(0, n, size=(40, 2))
        f.process_edges(edges[:, 0], edges[:, 1])
        r1 = f.roots()
        assert np.array_equal(f.parent[r1], r1)  # roots are self-parents


class TestParentArrayAdoption:
    def test_roundtrip(self):
        f = DisjointSetForest(5)
        f.process_edges(np.array([0, 2]), np.array([1, 3]))
        g = DisjointSetForest.from_parent_array(f.parent)
        assert g.n_components() == f.n_components()

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DisjointSetForest.from_parent_array(np.array([1, 0], dtype=np.int64))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            DisjointSetForest.from_parent_array(np.array([5], dtype=np.int64))

    def test_absorb_parent_array(self):
        a = DisjointSetForest(6)
        a.process_edges(np.array([0]), np.array([1]))
        b = DisjointSetForest(6)
        b.process_edges(np.array([1, 4]), np.array([2, 5]))
        unions = a.absorb_parent_array(b.parent)
        assert unions >= 2
        assert a.connected(0, 2)
        assert a.connected(4, 5)
        assert not a.connected(0, 4)

    def test_absorb_wrong_length_rejected(self):
        a = DisjointSetForest(3)
        with pytest.raises(ValueError):
            a.absorb_parent_array(np.arange(4))


class TestAdversarialInterleaving:
    def test_interleaved_blocks_same_partition(self, rng):
        """Simulate 'threads' processing edge blocks in shuffled order: the
        final partition must not depend on the interleaving (the property
        Algorithm 1's deferred verification protects on real hardware)."""
        n = 50
        edges = rng.integers(0, n, size=(200, 2))
        ref = DisjointSetForest(n)
        ref.process_edges(edges[:, 0], edges[:, 1])
        ref_labels = ref.roots()

        for trial in range(5):
            order = rng.permutation(len(edges))
            shuffled = edges[order]
            f = DisjointSetForest(n)
            for blk in np.array_split(np.arange(len(edges)), 7):
                f.process_edges(shuffled[blk, 0], shuffled[blk, 1])
            # same partition (labels may differ; compare co-membership)
            got = f.roots()
            assert np.array_equal(
                ref_labels[:, None] == ref_labels[None, :],
                got[:, None] == got[None, :],
            )
