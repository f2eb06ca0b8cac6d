"""Unit tests for the ultrametric constructions (Sections 4.1 & 5.2).

Every lemma of the convergence proof is exercised on live data:
Lemma 5 (d is an ultrametric), Lemma 6 (σ strictly contracting),
Lemmas 8–10 (path-vector contraction), Theorem 4's precondition bundle.
"""

import random

import pytest

from repro.algebras import AddPaths, HopCountAlgebra, ShortestPathsAlgebra
from repro.core import (
    DistanceVectorUltrametric,
    Network,
    PathVectorUltrametric,
    RoutingState,
    check_bounded,
    check_contracting_on_fixed_point,
    check_strictly_contracting,
    check_strictly_contracting_on_orbits,
    check_ultrametric_axioms,
    enumerate_consistent_routes,
    random_state,
    route_heights,
    sigma,
    theorem4_preconditions,
)
from repro.session import RoutingSession
from tests.conftest import hop_net, shortest_pv_net


class TestRouteHeights:
    """h(x) = |{y : x ≤ y}| (Section 4.1)."""

    def test_heights_on_chain(self):
        alg = HopCountAlgebra(4)
        heights, H = route_heights(alg, list(alg.routes()))
        # carrier is {0..4}: h(0) = 5 = H ... h(4) = 1
        assert H == 5
        assert heights[0] == 5
        assert heights[4] == 1
        assert heights[2] == 3

    def test_trivial_max_invalid_min(self):
        alg = HopCountAlgebra(9)
        heights, H = route_heights(alg, list(alg.routes()))
        assert heights[alg.trivial] == H
        assert heights[alg.invalid] == 1


class TestDVUltrametric:
    def setup_method(self):
        self.alg = HopCountAlgebra(5)
        self.metric = DistanceVectorUltrametric(self.alg)
        self.routes = list(self.alg.routes())

    def test_axioms_exhaustively(self):
        """Lemma 5 over the whole finite carrier."""
        for outcome in check_ultrametric_axioms(self.metric, self.routes):
            assert outcome.holds, outcome

    def test_distance_formula(self):
        # d(x,y) = max(h(x), h(y)) when x != y
        assert self.metric.distance(0, 5) == self.metric.H
        assert self.metric.distance(4, 5) == self.metric.height(4)
        assert self.metric.distance(3, 3) == 0

    def test_bounded_by_H(self):
        assert check_bounded(self.metric, self.routes).holds
        assert self.metric.bound == self.metric.H == 6

    def test_rejects_infinite_algebra_without_carrier(self):
        with pytest.raises(ValueError):
            DistanceVectorUltrametric(ShortestPathsAlgebra())

    def test_explicit_carrier_for_infinite_algebra(self):
        alg = ShortestPathsAlgebra()
        metric = DistanceVectorUltrametric(alg, carrier=[0, 1, 2, alg.invalid])
        assert metric.H == 4
        assert metric.distance(1, 2) == metric.height(1)

    def test_unknown_route_raises(self):
        with pytest.raises(KeyError):
            self.metric.height(77)

    def test_state_distance_is_max_over_entries(self):
        X = RoutingState.filled(5, 2)
        Y = RoutingState([[5, 0], [5, 5]])
        # only entry (0,1) differs: d(5, 0) = h(0) = H
        assert self.metric.state_distance(X, Y) == self.metric.H
        assert self.metric.state_distance(X, X) == 0


class TestLemma6StrictContraction:
    """Strictly increasing (finite) ⇒ σ strictly contracting over D."""

    def test_on_random_states(self):
        net = hop_net(4, bound=8)
        metric = DistanceVectorUltrametric(net.algebra)
        rng = random.Random(3)
        states = [random_state(net.algebra, 4, rng) for _ in range(10)]
        assert check_strictly_contracting(metric, net, states).holds

    def test_orbit_contraction_follows(self):
        net = hop_net(5, bound=10)
        metric = DistanceVectorUltrametric(net.algebra)
        rng = random.Random(4)
        states = [random_state(net.algebra, 5, rng) for _ in range(10)]
        assert check_strictly_contracting_on_orbits(metric, net, states).holds

    def test_contraction_fails_for_non_strict_algebra(self):
        """Negative control: widest paths (increasing, NOT strict) admits
        states where σ does not contract — the Theorem 7 hypothesis is
        load-bearing."""
        from repro.algebras import BoundedWidestPathsAlgebra

        alg = BoundedWidestPathsAlgebra(max_capacity=3)
        inv, triv = alg.invalid, alg.trivial
        net = Network(alg, 3)          # line 0 - 1 - 2, capacity 3
        for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            net.set_edge(i, j, alg.edge(3))
        metric = DistanceVectorUltrametric(alg)
        # X and Y disagree only on node 1's route to 2 (both below the
        # cap, so min(3, ·) transports the disagreement verbatim to
        # node 0 — the distance does not shrink).
        X = RoutingState([[triv, inv, inv], [inv, triv, 2], [inv, inv, triv]])
        Y = RoutingState([[triv, inv, inv], [inv, triv, 1], [inv, inv, triv]])
        out = check_strictly_contracting(metric, net, [X, Y])
        assert not out.holds


class TestPVUltrametric:
    def setup_method(self):
        self.net = shortest_pv_net(4, seed=2)
        self.alg = self.net.algebra
        self.metric = PathVectorUltrametric(self.net)
        self.sc = enumerate_consistent_routes(self.alg, self.net)

    def test_axioms_on_consistent_routes(self):
        for outcome in check_ultrametric_axioms(self.metric, self.sc):
            assert outcome.holds, outcome

    def test_axioms_with_inconsistent_routes(self):
        rng = random.Random(5)
        routes = list(self.sc[:6])
        routes += [self.alg.sample_route(rng) for _ in range(6)]
        for outcome in check_ultrametric_axioms(self.metric, routes):
            assert outcome.holds, outcome

    def test_consistent_height_range(self):
        """1 = h(∞̄) ≤ h_c(x) ≤ h_c(0̄) = H_c."""
        assert self.metric.consistent_height(self.alg.invalid) == 1
        assert self.metric.consistent_height(self.alg.trivial) == self.metric.H_c
        for r in self.sc:
            h = self.metric.consistent_height(r)
            assert 1 <= h <= self.metric.H_c

    def test_inconsistent_height(self):
        """h_i(x) = (n+1) - length(path(x)) for inconsistent x, 1 else."""
        ghost = (999, (3, 2, 1, 0))     # inconsistent: wrong value
        assert not self.metric.is_consistent(ghost)
        assert self.metric.inconsistent_height(ghost) == (4 + 1) - 3
        assert self.metric.inconsistent_height(self.alg.trivial) == 1

    def test_inconsistent_distance_dominates_consistent(self):
        """The H_c offset: any inconsistent disagreement is further than
        every consistent one (Section 5.2's design requirement)."""
        ghost = (999, (3, 2, 1, 0))
        d_incons = self.metric.distance(ghost, self.alg.trivial)
        for x in self.sc:
            for y in self.sc:
                if not self.alg.equal(x, y):
                    assert self.metric.distance(x, y) < d_incons

    def test_bound(self):
        assert self.metric.bound == self.metric.H_c + self.net.n + 1

    def test_consistent_height_unknown_route_raises(self):
        with pytest.raises(KeyError):
            self.metric.consistent_height((123456, (1, 0)))


class TestLemma9And10:
    """PV contraction on orbits and on the fixed point."""

    def test_strictly_contracting_on_orbits(self):
        net = shortest_pv_net(4, seed=3)
        metric = PathVectorUltrametric(net)
        rng = random.Random(6)
        states = [random_state(net.algebra, 4, rng) for _ in range(8)]
        out = check_strictly_contracting_on_orbits(metric, net, states)
        assert out.holds, out

    def test_contracting_on_fixed_point(self):
        net = shortest_pv_net(4, seed=4)
        metric = PathVectorUltrametric(net)
        alg = net.algebra
        fp = RoutingSession(net, "incremental").sigma().state
        rng = random.Random(7)
        states = [random_state(alg, 4, rng) for _ in range(8)]
        out = check_contracting_on_fixed_point(metric, net, fp, states,
                                               strict=False)
        assert out.holds, out

    def test_fixed_point_is_consistent(self):
        """Lemma 10's key step: X* cannot contain inconsistent routes."""
        net = shortest_pv_net(4, seed=5)
        metric = PathVectorUltrametric(net)
        fp = RoutingSession(net, "incremental").sigma().state
        for (_i, _j, r) in fp.entries():
            assert metric.is_consistent(r)


class TestTheorem4Bundle:
    def test_all_preconditions_hold_for_hop_count(self):
        net = hop_net(4, bound=6)
        metric = DistanceVectorUltrametric(net.algebra)
        rng = random.Random(8)
        states = [random_state(net.algebra, 4, rng) for _ in range(6)]
        routes = list(net.algebra.routes())
        checks = theorem4_preconditions(metric, net, states, routes)
        for c in checks:
            assert c.holds, c
