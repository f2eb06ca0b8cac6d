"""Unit tests for routing states, adjacency matrices and networks."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebras import HopCountAlgebra
from repro.cli import ALGEBRAS
from repro.core import AdjacencyMatrix, ConstantEdge, Network, RoutingState


class TestAdjacencyMatrix:
    def setup_method(self):
        self.alg = HopCountAlgebra(8)
        self.adj = AdjacencyMatrix(3, self.alg)

    def test_missing_edge_is_constant_invalid(self):
        f = self.adj(0, 1)
        assert f(3) == self.alg.invalid
        assert f(self.alg.trivial) == self.alg.invalid

    def test_set_and_get(self):
        self.adj.set(0, 1, self.alg.edge(2))
        assert self.adj(0, 1)(3) == 5
        assert self.adj.has_edge(0, 1)
        assert not self.adj.has_edge(1, 0)

    def test_remove_reverts_to_invalid(self):
        self.adj.set(0, 1, self.alg.edge(1))
        self.adj.remove(0, 1)
        assert self.adj(0, 1)(0) == self.alg.invalid

    def test_bounds_checked(self):
        with pytest.raises(IndexError):
            self.adj(0, 7)
        with pytest.raises(IndexError):
            self.adj.set(-1, 0, self.alg.edge(1))

    def test_present_edges_sorted(self):
        self.adj.set(2, 0, self.alg.edge(1))
        self.adj.set(0, 1, self.alg.edge(1))
        assert list(self.adj.present_edges()) == [(0, 1), (2, 0)]

    def test_arc_log_records_one_key_per_version_bump(self):
        self.adj.set(2, 0, self.alg.edge(1))
        v = self.adj.version
        self.adj.set(0, 1, self.alg.edge(1))
        self.adj.set(0, 1, self.alg.edge(2))     # a re-set bumps too
        self.adj.remove(1, 2)                    # absent: no bump, no entry
        self.adj.set(1, 1, self.alg.edge(1))     # a self-loop is an arc
        assert list(self.adj.arcs_since(v)) == [0 * 3 + 1, 0 * 3 + 1, 4]
        assert list(self.adj.arcs_since(self.adj.version)) == []
        assert self.adj.arcs_since(self.adj.version + 1) is None

    def test_arc_log_is_bounded_by_the_edge_count(self):
        self.adj.set(0, 1, self.alg.edge(1))
        self.adj.set(1, 0, self.alg.edge(1))
        v = self.adj.version
        for w in range(2, 6):                    # four bumps, two edges
            self.adj.set(0, 1, self.alg.edge(w))
        assert len(self.adj.arcs_since(self.adj.version - 2)) == 2
        assert self.adj.arcs_since(self.adj.version - 3) is None
        assert self.adj.arcs_since(v) is None
        self.adj.remove(0, 1)
        self.adj.remove(1, 0)                    # no edges: an empty log
        assert list(self.adj.arcs_since(self.adj.version)) == []
        assert self.adj.arcs_since(self.adj.version - 1) is None

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(0, self.alg)


class TestNetwork:
    def test_neighbours_in(self):
        alg = HopCountAlgebra(8)
        net = Network(alg, 3)
        net.set_edge(0, 1, alg.edge(1))
        net.set_edge(0, 2, alg.edge(1))
        net.set_edge(1, 2, alg.edge(1))
        assert net.neighbours_in(0) == [1, 2]
        assert net.neighbours_in(1) == [2]
        assert net.neighbours_in(2) == []

    def test_copy_is_independent(self):
        alg = HopCountAlgebra(8)
        net = Network(alg, 2)
        net.set_edge(0, 1, alg.edge(1))
        clone = net.copy()
        clone.remove_edge(0, 1)
        assert net.adjacency.has_edge(0, 1)
        assert not clone.adjacency.has_edge(0, 1)


class TestRoutingState:
    def setup_method(self):
        self.alg = HopCountAlgebra(8)

    def test_identity_matrix(self):
        I = RoutingState.identity(self.alg, 3)
        for i in range(3):
            for j in range(3):
                expected = self.alg.trivial if i == j else self.alg.invalid
                assert I.get(i, j) == expected

    def test_filled(self):
        X = RoutingState.filled(5, 2)
        assert all(r == 5 for (_i, _j, r) in X.entries())

    def test_from_function(self):
        X = RoutingState.from_function(lambda i, j: i * 10 + j, 3)
        assert X.get(2, 1) == 21

    def test_square_enforced(self):
        with pytest.raises(ValueError):
            RoutingState([[1, 2], [3]])

    def test_row_and_column_are_copies(self):
        X = RoutingState.identity(self.alg, 3)
        row = X.row(0)
        row[1] = 99
        assert X.get(0, 1) == self.alg.invalid
        col = X.column(1)
        col[0] = 99
        assert X.get(0, 1) == self.alg.invalid

    def test_elementwise_choice(self):
        X = RoutingState.filled(5, 2)
        Y = RoutingState.filled(3, 2)
        Z = X.choice(Y, self.alg)
        assert all(r == 3 for (_i, _j, r) in Z.entries())

    def test_equals_under_algebra(self):
        X = RoutingState.filled(5, 2)
        Y = RoutingState.filled(5, 2)
        Z = RoutingState.filled(4, 2)
        assert X.equals(Y, self.alg)
        assert not X.equals(Z, self.alg)

    def test_hashable_value_object(self):
        X = RoutingState.filled(5, 2)
        Y = RoutingState.filled(5, 2)
        assert X == Y
        assert hash(X) == hash(Y)
        assert len({X, Y}) == 1

    def test_pretty_contains_all_entries(self):
        X = RoutingState.identity(self.alg, 2)
        out = X.pretty()
        assert "node 0" in out and "node 1" in out


class TestEqualsComparesRowsFirst:
    @given(name=st.sampled_from(sorted(ALGEBRAS)),
           seed=st.integers(0, 2 ** 16), n=st.integers(1, 5),
           other=st.sampled_from(["same rows", "deep copy", "one entry",
                                  "fresh"]))
    @settings(max_examples=120, deadline=None)
    def test_equals_is_the_element_loop(self, name, seed, n, other):
        """Comparing whole rows with ``==`` first answers exactly as the
        entry-by-entry ``algebra.equal`` loop, for every registry
        algebra: on equal states (sharing route objects or not), on
        states one entry apart and on unrelated ones."""
        alg = ALGEBRAS[name]()[0]
        rng = random.Random(seed)
        mine = RoutingState.from_function(lambda i, j: alg.sample_route(rng),
                                          n)
        if other == "same rows":
            theirs = RoutingState([list(row) for row in mine.rows])
        elif other == "deep copy":
            theirs = copy.deepcopy(mine)
        elif other == "one entry":
            rows = [list(row) for row in mine.rows]
            rows[rng.randrange(n)][rng.randrange(n)] = alg.sample_route(rng)
            theirs = RoutingState(rows)
        else:
            theirs = RoutingState.from_function(
                lambda i, j: alg.sample_route(rng), n)
        loop = all(alg.equal(a, b) for ra, rb in zip(mine.rows, theirs.rows)
                   for a, b in zip(ra, rb))
        assert mine.equals(theirs, alg) == theirs.equals(mine, alg) == loop
        if other in ("same rows", "deep copy"):
            assert loop
