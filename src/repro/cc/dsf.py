"""Disjoint-set forest with the paper's concurrency-safe policy choices.

Paper section 3.5: *Find* uses path splitting (Tarjan & van Leeuwen's
one-pass variant); *Union* uses union-by-index — "the parent pointer of the
root element with lower index is set to the root element with higher index"
— because, unlike union-by-rank/size, it cannot introduce cycles when edges
are processed concurrently.  Threads run without synchronization; edges
whose union might have raced are buffered and re-verified in a next
iteration (Algorithm 1).  In this single-process reproduction races cannot
occur, but the deferred-verification loop is implemented faithfully (and
exercised by an adversarial interleaving in the tests) so the algorithm is
the paper's, not a simplification.

The sequential per-edge loop runs over a ``memoryview`` of the parent
array: plain ints, no copy, so wrapped shared memory is updated in place.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class DisjointSetForest:
    """Array-backed union-find over vertices ``0..n-1``."""

    __slots__ = ("parent",)

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        # "Initially, the parent of each read (vertex) is set to point to
        # itself."
        self.parent = np.arange(n_vertices, dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @classmethod
    def wrap(cls, parent: np.ndarray) -> "DisjointSetForest":
        """Adopt ``parent`` *without copying or validating*.

        Mutations through the forest write straight into ``parent``.  This
        is the executor-worker constructor: the pipeline ships a task's
        parent array to a worker (pickled for the process engine, by
        reference for the serial engine) and wraps it on arrival, so both
        engines run LocalCC against byte-identical forest state.  Use
        :meth:`from_parent_array` for untrusted input.
        """
        parent = np.ascontiguousarray(parent, dtype=np.int64)
        forest = cls.__new__(cls)
        forest.parent = parent
        return forest

    @classmethod
    def from_parent_array(cls, parent: np.ndarray) -> "DisjointSetForest":
        """Adopt an existing component array (e.g. one received in MergeCC).

        Validates that the array is a forest: every chain terminates.
        """
        parent = np.ascontiguousarray(parent, dtype=np.int64)
        n = len(parent)
        if n and (parent.min() < 0 or parent.max() >= n):
            raise ValueError("parent entries out of range")
        forest = cls.__new__(cls)
        forest.parent = parent.copy()
        # cheap acyclicity check: pointer-jump n times must reach fixpoint
        roots = forest.find_many(np.arange(n, dtype=np.int64))
        if n and not np.array_equal(parent[roots], roots):
            raise ValueError("parent array contains a cycle")
        return forest

    # ------------------------------------------------------------------
    # scalar operations (the Algorithm 1 hot loop)
    # ------------------------------------------------------------------
    def find(self, x: int) -> int:
        """Root of ``x`` with path splitting: every visited node is
        re-pointed at its grandparent, and the walk continues through the
        *old* parent so every node on the path is updated (Tarjan & van
        Leeuwen's one-pass splitting — distinct from path halving, which
        skips every other node)."""
        return _find(memoryview(self.parent), int(x))

    def union(self, root_u: int, root_v: int) -> int:
        """Union-by-index of two *roots*; returns the surviving root.

        The lower-index root is attached beneath the higher-index one.
        """
        if root_u == root_v:
            return root_u
        if root_u < root_v:
            self.parent[root_u] = root_v
            return root_v
        self.parent[root_v] = root_u
        return root_u

    def connected(self, u: int, v: int) -> bool:
        return self.find(u) == self.find(v)

    # ------------------------------------------------------------------
    # vectorized helpers
    # ------------------------------------------------------------------
    def find_many(self, xs: np.ndarray, compress: bool = False) -> np.ndarray:
        """Roots of many vertices by repeated pointer jumping (no mutation
        unless ``compress``).

        Used by LocalCC-Opt (map read ids to component ids before
        re-enumeration) and by final relabeling; jump count is
        O(log depth) gathers over the whole array.
        """
        xs = np.asarray(xs, dtype=np.int64)
        # True pointer doubling on the whole mapping: composing the parent
        # function with itself halves every chain's depth per round, so a
        # forest of n nodes converges within log2(n) + 1 rounds; exceeding
        # that bound means the parent array contains a cycle.
        p = self.parent.copy()
        max_rounds = max(self.n_vertices, 2).bit_length() + 2
        for _ in range(max_rounds):
            nxt = p[p]
            if np.array_equal(nxt, p):
                break
            p = nxt
        else:
            raise ValueError("parent array contains a cycle")
        roots = p[xs]
        if compress:
            self.parent[xs] = roots
        return roots

    def roots(self) -> np.ndarray:
        """Root of every vertex (vectorized full-array find)."""
        return self.find_many(np.arange(self.n_vertices, dtype=np.int64))

    def n_components(self) -> int:
        if self.n_vertices == 0:
            return 0
        return int(len(np.unique(self.roots())))

    # ------------------------------------------------------------------
    # Algorithm 1: edge processing with deferred verification
    # ------------------------------------------------------------------
    def process_edges(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[int, int, int]:
        """Fold an edge list into the forest per Algorithm 1.

        Returns ``(n_unions, n_find_steps, n_iterations)``.  Edges that
        trigger a Union are buffered into ``E_out`` and re-verified in the
        next iteration until no edge produces further unions — the paper's
        guard against concurrent lost updates.  The paper observes "the
        overall time is dominated by the time for the first iteration";
        the returned iteration count lets tests confirm the loop converges
        in two iterations when uncontended.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("edge endpoint arrays differ in length")
        parent = memoryview(self.parent)  # no NumPy scalar per access
        n_unions = 0
        find_steps = 0
        iterations = 0

        e_in_u, e_in_v = us.tolist(), vs.tolist()
        while e_in_u:
            iterations += 1
            out_u = []
            out_v = []
            for u, v in zip(e_in_u, e_in_v):
                # inline find with path splitting (hot loop)
                x = u
                while True:
                    px = parent[x]
                    if px == x:
                        break
                    ppx = parent[px]
                    if ppx == px:
                        x = px
                        break
                    parent[x] = ppx
                    x = px
                    find_steps += 1
                root_u = x
                x = v
                while True:
                    px = parent[x]
                    if px == x:
                        break
                    ppx = parent[px]
                    if ppx == px:
                        x = px
                        break
                    parent[x] = ppx
                    x = px
                    find_steps += 1
                root_v = x
                if root_u != root_v:
                    if root_u < root_v:
                        parent[root_u] = root_v
                    else:
                        parent[root_v] = root_u
                    n_unions += 1
                    out_u.append(u)
                    out_v.append(v)
            if not out_u:
                break
            # E_in <- E_out: re-verify edges whose union may have raced.
            # On re-verification the roots now coincide, so the loop
            # terminates after one extra quiet iteration (or immediately
            # starts another round if a racing thread undid the work --
            # impossible here, guaranteed converging regardless).
            e_in_u, e_in_v = [], []
            for u, v in zip(out_u, out_v):
                if _find(parent, u) != _find(parent, v):
                    e_in_u.append(u)
                    e_in_v.append(v)
        return n_unions, find_steps, iterations

    def copy(self) -> "DisjointSetForest":
        clone = DisjointSetForest.__new__(DisjointSetForest)
        clone.parent = self.parent.copy()
        return clone

    def absorb_parent_array(self, other_parent: np.ndarray) -> int:
        """Treat another task's component array as edges (MergeCC kernel).

        Paper section 3.6: "the i-th element is treated as an edge from
        vertex i to vertex p'(i)".  Returns the number of unions performed.
        """
        other_parent = np.asarray(other_parent, dtype=np.int64)
        if len(other_parent) != self.n_vertices:
            raise ValueError(
                f"component array length {len(other_parent)} != "
                f"{self.n_vertices} vertices"
            )
        nontrivial = np.flatnonzero(other_parent != np.arange(len(other_parent)))
        if len(nontrivial) == 0:
            return 0
        unions, _, _ = self.process_edges(nontrivial, other_parent[nontrivial])
        return unions


def _find(parent: memoryview, x: int) -> int:
    """Path-splitting find over a memoryview of the parent array."""
    while True:
        px = parent[x]
        if px == x:
            return x
        ppx = parent[px]
        if ppx == px:
            return px
        parent[x] = ppx
        x = px
