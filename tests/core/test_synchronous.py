"""Unit tests for σ (Section 2.2–2.3): Lemma 1, stability, iteration."""

import pytest

from repro.algebras import HopCountAlgebra, LongestPathsAlgebra
from repro.core import (
    Network,
    RoutingState,
    is_stable,
    sigma,
    sigma_entry,
    synchronous_fixed_point,
)
from repro.session import RoutingSession
from tests.conftest import hop_net


class TestSigma:
    def test_diagonal_is_trivial_after_one_round(self):
        """Lemma 1: σ(X)[i][i] = 0̄ for every X."""
        net = hop_net(4)
        alg = net.algebra
        garbage = RoutingState.filled(7, 4)
        out = sigma(net, garbage)
        for i in range(4):
            assert out.get(i, i) == alg.trivial

    def test_one_round_from_identity_learns_neighbours(self):
        net = hop_net(4, weight=1)
        alg = net.algebra
        out = sigma(net, RoutingState.identity(alg, 4))
        # after one round each node knows its ring neighbours at cost 1
        assert out.get(0, 1) == 1
        assert out.get(0, 3) == 1
        # and nothing else yet
        assert out.get(0, 2) == alg.invalid

    def test_sigma_entry_matches_sigma(self):
        net = hop_net(5, weight=2)
        X = RoutingState.identity(net.algebra, 5)
        full = sigma(net, X)
        for i in range(5):
            for j in range(5):
                assert sigma_entry(net, X, i, j) == full.get(i, j)

    def test_shortest_distances_on_ring(self):
        net = hop_net(6, weight=1)
        fp = synchronous_fixed_point(net)
        # ring distances: min(|i-j|, 6-|i-j|)
        for i in range(6):
            for j in range(6):
                d = min(abs(i - j), 6 - abs(i - j))
                assert fp.get(i, j) == d


class TestStability:
    def test_fixed_point_is_stable(self):
        net = hop_net(4)
        fp = synchronous_fixed_point(net)
        assert is_stable(net, fp)

    def test_identity_is_not_stable_on_connected_net(self):
        net = hop_net(4)
        assert not is_stable(net, RoutingState.identity(net.algebra, 4))


class TestIterateSigma:
    def test_rounds_zero_for_stable_start(self):
        net = hop_net(4)
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").sigma(fp)
        assert res.converged and res.rounds == 0

    def test_trajectory_recorded(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").sigma(keep_trajectory=True)
        assert res.converged
        assert len(res.trajectory) >= res.rounds
        assert res.trajectory[-1].equals(res.state, net.algebra) or \
            res.trajectory[-2].equals(res.state, net.algebra)

    def test_fixed_point_property_raises_when_diverged(self):
        # count-to-infinity: genuinely never stabilises
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").sigma(stale, max_rounds=20)
        assert not res.converged
        with pytest.raises(ValueError):
            _ = res.fixed_point

    def test_max_rounds_respected(self):
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").sigma(stale, max_rounds=7)
        assert res.rounds == 7

    def test_longest_paths_converges_to_garbage(self):
        """Longest paths does not diverge — it converges to the useless
        all-∞ state, because the trivial route (numeric ∞) is an
        annihilator and propagates everywhere.  The algebra's failure
        mode is wrong answers, not non-termination."""
        alg = LongestPathsAlgebra()
        net = Network(alg, 2)
        net.set_edge(0, 1, alg.edge(1))
        net.set_edge(1, 0, alg.edge(1))
        res = RoutingSession(net, "incremental").sigma()
        assert res.converged
        assert all(r == alg.trivial for (_i, _j, r) in res.state.entries())


class TestConvergenceFromArbitraryStates:
    """Theorem 7's synchronous shadow: finite strictly increasing ⇒
    σ converges from garbage states too."""

    @pytest.mark.parametrize("fill", [0, 3, 7, 16])
    def test_converges_from_constant_states(self, fill):
        net = hop_net(4, bound=16)
        res = RoutingSession(net, "incremental").sigma(
            RoutingState.filled(fill, 4))
        assert res.converged

    def test_same_fixed_point_from_different_starts(self, rng):
        from repro.core import random_state

        net = hop_net(4, bound=16)
        alg = net.algebra
        reference = synchronous_fixed_point(net)
        for _ in range(10):
            start = random_state(alg, 4, rng)
            res = RoutingSession(net, "incremental").sigma(start)
            assert res.converged
            assert res.state.equals(reference, alg)
