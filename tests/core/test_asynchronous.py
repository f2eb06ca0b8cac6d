"""Unit tests for δ (Section 3.1): recursion, recovery of σ, convergence."""

import pytest

from repro.core import (
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    RoutingState,
    SynchronousSchedule,
    delta_step,
    is_stable,
    random_state,
    sigma,
    synchronous_fixed_point,
)
from repro.session import RoutingSession
from tests.conftest import finite_net, hop_net


class TestDeltaRecoversSigma:
    """With α(t) = V and β(t,i,j) = t-1, δ is exactly σ (Section 3.1)."""

    def test_stepwise_equality(self):
        net = hop_net(4)
        alg = net.algebra
        sched = SynchronousSchedule(4)
        X = RoutingState.identity(alg, 4)
        history = [X]
        sigma_state = X
        for t in range(1, 8):
            history.append(delta_step(net, sched, history, t))
            sigma_state = sigma(net, sigma_state)
            assert history[t].equals(sigma_state, alg)


class TestDeltaMechanics:
    def test_inactive_nodes_keep_their_rows(self):
        net = hop_net(4)
        alg = net.algebra
        sched = RoundRobinSchedule(4)   # only node (t-1) % n activates
        X = RoutingState.filled(9, 4)
        step1 = delta_step(net, sched, [X], 1)
        # node 0 activated, others untouched
        assert step1.row(1) == X.row(1)
        assert step1.row(2) == X.row(2)
        assert step1.get(0, 0) == alg.trivial

    def test_delta_uses_historic_states(self):
        """With delay d, activations at t read states from t - d."""
        net = hop_net(3)
        alg = net.algebra
        sched = FixedDelaySchedule(3, delay=2)
        X0 = RoutingState.identity(alg, 3)
        history = [X0]
        for t in range(1, 4):
            history.append(delta_step(net, sched, history, t))
        # at t=1 and t=2, reads clamp to the initial state, so both
        # steps recompute from X0 and agree
        assert history[1].equals(history[2], alg)


class TestDeltaConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_to_sync_fixed_point(self, seed):
        net = hop_net(4)
        alg = net.algebra
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(4, seed=seed), RoutingState.identity(alg, 4))
        assert res.converged
        assert res.state.equals(fp, alg)
        assert is_stable(net, res.state)

    def test_converged_at_is_consistent(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(4, seed=5),
            RoutingState.filled(net.algebra.invalid, 4))
        assert res.converged
        assert res.converged_at is not None
        assert res.converged_at <= res.steps

    def test_history_kept_on_request(self):
        net = hop_net(3)
        res = RoutingSession(net, "incremental").delta(
            SynchronousSchedule(3), RoutingState.identity(net.algebra, 3),
            keep_history=True)
        assert res.history is not None
        assert len(res.history) == res.steps + 1

    def test_fixed_point_accessor_raises_on_divergence(self):
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").delta(
            SynchronousSchedule(net.n), stale, max_steps=40)
        assert not res.converged
        with pytest.raises(ValueError):
            _ = res.fixed_point


class TestAbsoluteConvergenceExperiment:
    def test_positive_case(self):
        net = finite_net(4, levels=6, seed=1)
        starts = [RoutingState.identity(net.algebra, 4),
                  RoutingState.filled(net.algebra.invalid, 4),
                  RoutingState.filled(3, 4)]
        schedules = [SynchronousSchedule(4), RoundRobinSchedule(4),
                     RandomSchedule(4, seed=9)]
        report = RoutingSession(net, "incremental").delta_grid(
            [(sched, start) for start in starts for sched in schedules])
        assert report.absolute, f"{len(report.distinct_fixed_points)} FPs"
        assert report.runs == 9
        assert report.max_steps >= 1
        assert report.mean_steps > 0

    def test_empty_report_statistics(self):
        r = RoutingSession(hop_net(3), "incremental").delta_grid([])
        assert r.runs == 0 and r.all_converged
        assert r.max_steps == 0
        assert r.mean_steps == 0.0


class TestRandomState:
    def test_entries_come_from_sampler(self, rng):
        net = hop_net(4)
        X = random_state(net.algebra, 4, rng)
        carrier = set(net.algebra.routes())
        for (_i, _j, r) in X.entries():
            assert r in carrier

    def test_custom_sampler(self, rng):
        X = random_state(None, 3, rng, sampler=lambda r: 42)
        assert all(v == 42 for (_i, _j, v) in X.entries())
