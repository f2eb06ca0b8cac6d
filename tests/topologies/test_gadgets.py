"""Gadget invariants (the ones not already covered by algebra tests)."""

import pytest

from repro.algebras import INVALID, InComm
from repro.analysis import measure_sync, multistart_fixed_points
from repro.core import synchronous_fixed_point
from repro.session import RoutingSession
from repro.topologies import (
    BACKUP_COMMUNITY,
    count_to_infinity,
    count_to_infinity_pv,
    exploration_clique,
    preference_cascade,
    wedgie_bgplite,
)


class TestCountToInfinityGadget:
    def test_stale_state_was_a_fixed_point_of_the_old_net(self):
        """The stale state is exactly the pre-failure fixed point: 1
        reached 0 at cost 1, 2 via 1 at cost 2."""
        _net, stale = count_to_infinity()
        assert stale.get(1, 0) == 1
        assert stale.get(2, 0) == 2

    def test_divergence_is_monotone(self):
        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").sigma(
            stale, max_rounds=30, keep_trajectory=True)
        assert not res.converged
        dists = [s.get(1, 0) for s in res.trajectory]
        assert all(b >= a for a, b in zip(dists, dists[1:]))
        assert dists[-1] > dists[0]

    def test_pv_flushes_in_bounded_rounds(self):
        net, stale = count_to_infinity_pv()
        res = RoutingSession(net, "incremental").sigma(stale, max_rounds=10)
        assert res.converged
        assert res.rounds <= net.n + 1      # the h_i argument's bound


class TestWedgieBGPLite:
    def test_unique_fixed_point(self):
        net, alg = wedgie_bgplite()
        report = multistart_fixed_points(net, n_starts=5, seed=1,
                                         max_steps=800)
        assert report.converged_runs == report.runs
        assert not report.wedged

    def test_primary_route_wins(self):
        """Policy intent honoured: node 1 avoids the tagged backup path."""
        net, alg = wedgie_bgplite()
        fp = synchronous_fixed_point(net)
        route = fp.get(1, 0)
        assert route is not INVALID
        assert not InComm(BACKUP_COMMUNITY).evaluate(route)

    def test_backup_used_when_primary_fails(self):
        net, alg = wedgie_bgplite()
        net.remove_edge(2, 0)
        net.remove_edge(0, 2)
        fp = synchronous_fixed_point(net)
        route = fp.get(2, 0)     # provider 2 now relies on the backup
        assert route is not INVALID
        assert InComm(BACKUP_COMMUNITY).evaluate(route)

    def test_reconvergence_is_deterministic_after_flap(self):
        """Fail the primary, restore it: the network returns to the
        original state — no wedgie hysteresis (the RFC 4264 pathology
        cannot happen in an increasing algebra)."""
        net, alg = wedgie_bgplite()
        before = synchronous_fixed_point(net)
        saved = (net.edge(2, 0), net.edge(0, 2))
        net.remove_edge(2, 0), net.remove_edge(0, 2)
        during = RoutingSession(net, "incremental").sigma(before).state
        net.set_edge(2, 0, saved[0]), net.set_edge(0, 2, saved[1])
        after = RoutingSession(net, "incremental").sigma(during).state
        assert after.equals(before, alg)


class TestRateFamilies:
    def test_preference_cascade_rounds_track_n(self):
        rounds = [measure_sync(preference_cascade(n)).rounds
                  for n in (4, 6, 8, 10)]
        assert rounds == sorted(rounds)
        assert rounds[-1] > rounds[0]

    def test_exploration_clique_converges(self):
        net = exploration_clique(5)
        res = RoutingSession(net, "incremental").sigma()
        assert res.converged

    def test_exploration_clique_path_hunting_from_stale_state(self):
        """After the destination disappears, stale paths are explored
        and flushed — rounds grow with n (the path-hunting cost)."""
        rounds = []
        for n in (4, 5, 6):
            net = exploration_clique(n)
            fp = synchronous_fixed_point(net)
            # sever the destination: remove all of 0's adjacencies
            for i in range(1, n):
                net.remove_edge(i, 0)
                net.remove_edge(0, i)
            res = RoutingSession(net, "incremental").sigma(fp, max_rounds=500)
            assert res.converged
            rounds.append(res.rounds)
        assert rounds == sorted(rounds)
