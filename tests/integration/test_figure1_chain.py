"""Integration: the Figure 1 implication chain, arrow by arrow.

    strictly increasing ⇒ ultrametric conditions ⇒ (ACO) ⇒ absolute conv.

Arrow (c) is checked by building the ultrametric and testing Theorem 4's
three preconditions; arrows (a)+(b) are checked operationally: whenever
the preconditions hold, every δ run converges to the one fixed point.
"""

import random

import pytest

from repro.algebras import FiniteLevelAlgebra, HopCountAlgebra
from repro.core import (
    DistanceVectorUltrametric,
    Network,
    PathVectorUltrametric,
    RoutingState,
    random_state,
    theorem4_preconditions,
)
from repro.session import RoutingSession
from tests.conftest import finite_net, hop_net, shortest_pv_net


def states_for(net, count, seed):
    rng = random.Random(seed)
    out = [RoutingState.identity(net.algebra, net.n)]
    out += [random_state(net.algebra, net.n, rng) for _ in range(count)]
    return out


class TestArrowC_DV:
    """strictly increasing (finite) ⇒ the Theorem 4 preconditions."""

    @pytest.mark.parametrize("build,seed", [
        (lambda: hop_net(4, bound=8), 1),
        (lambda: hop_net(5, bound=6), 2),
        (lambda: finite_net(4, levels=6, seed=3), 3),
    ], ids=["hop4", "hop5", "finite4"])
    def test_preconditions(self, build, seed):
        net = build()
        metric = DistanceVectorUltrametric(net.algebra)
        states = states_for(net, 6, seed)
        routes = list(net.algebra.routes())
        for check in theorem4_preconditions(metric, net, states, routes):
            assert check.holds, check


class TestArrowC_PV:
    """increasing path algebra ⇒ the Theorem 4 preconditions (PV form)."""

    def test_preconditions(self):
        net = shortest_pv_net(4, seed=4)
        metric = PathVectorUltrametric(net)
        states = states_for(net, 5, 5)
        from repro.core import enumerate_consistent_routes

        routes = enumerate_consistent_routes(net.algebra, net)
        for check in theorem4_preconditions(metric, net, states, routes):
            assert check.holds, check


class TestArrowsAB:
    """ultrametric preconditions verified ⇒ absolute convergence observed."""

    def test_whole_chain_dv(self):
        net = hop_net(4, bound=8)
        metric = DistanceVectorUltrametric(net.algebra)
        states = states_for(net, 4, 6)
        routes = list(net.algebra.routes())
        checks = theorem4_preconditions(metric, net, states, routes)
        assert all(c.holds for c in checks)
        report = RoutingSession(net, "incremental").converges(
            n_starts=3, seed=7, max_steps=2500).grid
        assert report.absolute

    def test_whole_chain_pv(self):
        net = shortest_pv_net(4, seed=8)
        metric = PathVectorUltrametric(net)
        states = states_for(net, 4, 9)
        from repro.core import enumerate_consistent_routes

        routes = enumerate_consistent_routes(net.algebra, net)
        checks = theorem4_preconditions(metric, net, states, routes)
        assert all(c.holds for c in checks)
        report = RoutingSession(net, "incremental").converges(
            n_starts=3, seed=10, max_steps=2500).grid
        assert report.absolute

    def test_chain_breaks_where_it_should(self):
        """A non-strict finite algebra admits two genuine fixed points;
        no ultrametric can make σ strictly contracting on a fixed point
        then (σ fixes both, so d(X*, Y*) can never decrease) — the
        chain's first arrow refuses, as it must."""
        from repro.core import check_contracting_on_fixed_point, is_stable

        alg = FiniteLevelAlgebra(4)
        net = Network(alg, 3, name="plateau")
        plateau = alg.table_edge([2, 3, 2, 3, 4])
        net.set_edge(0, 1, plateau)
        net.set_edge(1, 0, plateau)
        fp1 = RoutingState([[0, 2, 2], [2, 0, 2], [4, 4, 0]])
        fp2 = RoutingState([[0, 2, 3], [2, 0, 3], [4, 4, 0]])
        assert is_stable(net, fp1) and is_stable(net, fp2)
        metric = DistanceVectorUltrametric(alg)
        out = check_contracting_on_fixed_point(metric, net, fp1, [fp2],
                                               strict=True)
        assert not out.holds
