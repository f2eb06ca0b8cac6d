"""Session replay hook: warm re-convergence over a mutation stream.

The semantic contract: replaying a stream through one warm session
(each σ warm-started from the previous fixed point) lands on exactly
the fixed point a cold solve of the final topology computes — warmth
is a speed-up, never a different answer.
"""

import pytest

from repro.algebras import HopCountAlgebra
from repro.core import synchronous_fixed_point
from repro.scenarios import (
    EVENTS,
    LinkFlap,
    NodeFailure,
    build_scenario_network,
    compile_event,
    event_seed,
    replay_events,
)
from repro.session import EngineSpec, RoutingSession
from repro.topologies import ring, uniform_weight_factory


def hop_ring(n=8, seed=0):
    alg = HopCountAlgebra(16)
    factory = uniform_weight_factory(alg, 1, 3)
    return ring(alg, n, factory, seed=seed), factory


class TestReplay:
    def test_report_shape(self):
        net, factory = hop_ring()
        with RoutingSession(net, EngineSpec("auto")) as session:
            report = replay_events(
                session, [LinkFlap(), NodeFailure()], factory, seed=1)
        assert report.steps[0].label == "initial"
        assert [s.label for s in report.steps[1:]] == \
            ["link-down", "link-up", "node-down", "node-up"]
        assert report.phases == 4
        assert report.all_converged
        assert report.total_churn == sum(s.churn for s in report.steps[1:])
        assert report.total_rounds == sum(s.rounds for s in report.steps[1:])

    def test_warm_final_state_equals_cold_solve(self):
        net, factory = hop_ring()
        events = [LinkFlap(), NodeFailure(), LinkFlap()]
        with RoutingSession(net, EngineSpec("auto")) as session:
            report = replay_events(session, events, factory, seed=5)
        # independent rebuild: apply the identical compiled stream cold
        net2, factory2 = hop_ring()
        state = synchronous_fixed_point(net2)
        for idx, name in enumerate(
                ["link-flap", "node-failure", "link-flap"]):
            phases = compile_event(EVENTS[name](), net2, factory2,
                                   event_seed(5, idx), state=state)
            for ph in phases:
                for m in ph.mutations:
                    m.apply(net2)
            state = synchronous_fixed_point(net2)
        assert report.final_state.equals(state, net.algebra)

    def test_literal_phases_are_accepted(self):
        net, factory = hop_ring()
        phases = compile_event(LinkFlap(edge=(0, 1)), net, factory, 0)
        with RoutingSession(net, EngineSpec("auto")) as session:
            report = session.replay(phases)
        assert [s.label for s in report.steps] == \
            ["initial", "link-down", "link-up"]
        assert report.all_converged

    def test_versions_are_monotonic(self):
        net, factory = hop_ring()
        with RoutingSession(net, EngineSpec("auto")) as session:
            report = replay_events(session, [LinkFlap()], factory, seed=0)
        versions = [s.version for s in report.steps]
        assert versions == sorted(versions)
        assert versions[-1] > versions[0]

    def test_incremental_churn_matches_trajectory_count(self):
        """The pv-replay shape (elmokashfi-24 under bgp-lite, the
        five-event grammar on the incremental rung): the dirty-set churn
        of every step equals the entry changes counted off that step's
        σ trajectory."""
        net, factory = build_scenario_network("elmokashfi-24", "bgplite",
                                              seed=0)
        events = [EVENTS[name]() for name in (
            "link-flap", "node-failure", "link-weight-change",
            "policy-change", "del-best-route")]
        alg = net.algebra
        counted = []
        with RoutingSession(net, EngineSpec("incremental")) as session:
            solve = session.sigma

            def sigma_with_trajectory(start, **kwargs):
                report = solve(start, keep_trajectory=True, **kwargs)
                traj = report.trajectory
                counted.append((report.churn, sum(
                    not alg.equal(a, b)
                    for prev, cur in zip(traj, traj[1:])
                    for prev_row, cur_row in zip(prev.rows, cur.rows)
                    for a, b in zip(prev_row, cur_row))))
                return report

            session.sigma = sigma_with_trajectory
            report = replay_events(session, events, factory, seed=3)
        assert report.resolution.chosen == "incremental"
        assert len(counted) == len(report.steps) > 1
        assert [step.churn for step in report.steps] == \
            [churn for churn, _ in counted]
        assert all(churn == count for churn, count in counted)
        assert report.total_churn > 0

    def test_final_state_raises_when_not_converged(self):
        net, factory = hop_ring()
        with RoutingSession(net, EngineSpec("auto")) as session:
            report = replay_events(session, [LinkFlap()], factory, seed=0)
        assert report.final_state is report.steps[-1].state
        report.steps[-1].converged = False
        with pytest.raises(ValueError):
            report.final_state
