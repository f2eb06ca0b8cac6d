"""Integration: Theorem 11 end-to-end.

Increasing *path* algebra (possibly infinite carrier) ⇒ δ converges
absolutely, including from inconsistent stale states — checked for the
AddPaths lift, BGPLite and Gao–Rexford.
"""

import random

import pytest

from repro.algebras import (
    AddPaths,
    ShortestPathsAlgebra,
    WidestPathsAlgebra,
)
from repro.core import RandomSchedule, RoutingState, random_state
from repro.session import RoutingSession
from repro.topologies import lifted_weight_factory, ring
from tests.conftest import bgp_net, shortest_pv_net


def widest_pv_net(n=4, seed=0):
    base = WidestPathsAlgebra()
    alg = AddPaths(base, n_nodes=n)
    return ring(alg, n, lifted_weight_factory(alg, 1, 5), seed=seed)


class TestTheorem11Positive:
    @pytest.mark.parametrize("build", [
        lambda: shortest_pv_net(4, seed=1),
        lambda: widest_pv_net(4, seed=2),
        lambda: bgp_net(4, seed=3),
    ], ids=["shortest-pv", "widest-pv", "bgplite"])
    def test_absolute_convergence(self, build):
        net = build()
        report = RoutingSession(net, "incremental").converges(
            n_starts=3, seed=5, max_steps=2500).grid
        assert report.all_converged
        assert report.absolute

    def test_gao_rexford_hierarchy(self):
        from repro.topologies import gao_rexford_hierarchy

        net, _rels = gao_rexford_hierarchy(2, 3, 4, seed=4)
        report = RoutingSession(net, "incremental").converges(
            n_starts=2, seed=6, max_steps=2500).grid
        assert report.absolute


class TestInconsistentStates:
    """The Section 5 machinery exists precisely for these starts."""

    def test_convergence_from_heavily_inconsistent_state(self):
        net = shortest_pv_net(5, seed=7)
        alg = net.algebra
        rng = random.Random(8)
        reference = RoutingSession(net, "incremental").sigma().state
        # build a state of pure ghosts: plausible paths, wrong values
        ghost = RoutingState.from_function(
            lambda i, j: (rng.randint(50, 99),
                          tuple(rng.sample(range(5), 3))) if i != j
            else alg.trivial, 5)
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(5, seed=9), ghost, max_steps=2500)
        assert res.converged
        assert res.state.equals(reference, alg)

    def test_inconsistency_flushed_within_bound(self):
        """Every application of σ lengthens the shortest inconsistent
        path; after ≤ n rounds the state is fully consistent (the
        Lemma 8/9 mechanism, observed directly)."""
        from repro.core import PathVectorUltrametric, sigma

        net = shortest_pv_net(4, seed=10)
        metric = PathVectorUltrametric(net)
        rng = random.Random(11)
        X = random_state(net.algebra, 4, rng)
        for _round in range(net.n + 1):
            X = sigma(net, X)
        for (_i, _j, r) in X.entries():
            assert metric.is_consistent(r)

    def test_stale_state_after_topology_change(self):
        """Operational version: converge, change the topology, keep the
        old state as the new start (Section 3.2), re-converge."""
        net = shortest_pv_net(5, seed=12)
        alg = net.algebra
        old_fp = RoutingSession(net, "incremental").sigma().state
        # re-weight one edge: the old fixed point is now inconsistent
        base = alg.base
        net.set_edge(0, 1, alg.edge(0, 1, base.edge(9)))
        new_fp = RoutingSession(net, "incremental").sigma().state
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(5, seed=13), old_fp, max_steps=2500)
        assert res.converged
        assert res.state.equals(new_fp, alg)


class TestStrictnessForFree:
    def test_widest_paths_needs_the_lift(self):
        """Raw widest paths (not strictly increasing, infinite) gets no
        DV guarantee, but its AddPaths lift converges absolutely —
        Section 5.1's 'P3 upgrades increasing to strictly increasing'."""
        net = widest_pv_net(4, seed=14)
        report = RoutingSession(net, "incremental").converges(
            n_starts=2, seed=15, max_steps=2500).grid
        assert report.absolute
