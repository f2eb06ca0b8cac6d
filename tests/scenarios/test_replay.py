"""Session replay hook: warm re-convergence over a mutation stream.

The semantic contract: replaying a stream through one warm session
(each σ warm-started from the previous fixed point) lands on exactly
the fixed point a cold solve of the final topology computes — warmth
is a speed-up, never a different answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebras import (
    BGPLiteAlgebra,
    Compose,
    HopCountAlgebra,
    If,
    IncrPrefBy,
    InPath,
    Reject,
    SetPref,
)
from repro.core import Network, RoutingState, synchronous_fixed_point
from repro.scenarios import (
    EVENTS,
    LinkFlap,
    NodeFailure,
    build_scenario_network,
    compile_event,
    event_seed,
    replay_events,
)
from repro.scenarios.registry import scenario_topologies
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


PATH_ALGEBRAS = ("bgplite", "prepending", "gao-rexford", "shortest-pv")


def transcript(report):
    return [(s.label, s.mutations, s.version, s.converged, s.rounds, s.churn)
            for s in report.steps]


def assert_same_report(a, b, algebra):
    assert (a.converged, a.rounds, a.churn) == (b.converged, b.rounds,
                                                b.churn)
    assert a.state.equals(b.state, algebra)


class TestReplayOracle:
    """The incremental rung's warm re-solves (certified fixed point,
    columns patched from the arc log) equal the paper's literal
    recursion step for step."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(scenario_topologies())),
           st.sampled_from(PATH_ALGEBRAS),
           st.lists(st.sampled_from(sorted(EVENTS)), min_size=1,
                    max_size=5),
           st.integers(0, 2 ** 20), st.integers(0, 3))
    def test_incremental_replay_equals_naive(self, topology, algebra,
                                             events, seed, net_seed):
        reports = {}
        for engine in ("incremental", "naive"):
            net, factory = build_scenario_network(topology, algebra,
                                                  seed=net_seed)
            with RoutingSession(net, EngineSpec(engine)) as session:
                reports[engine] = replay_events(
                    session, [EVENTS[e]() for e in events], factory,
                    seed=seed)
        inc, naive = reports["incremental"], reports["naive"]
        assert inc.resolution.chosen == "incremental"
        assert transcript(inc) == transcript(naive)
        for a, b in zip(inc.steps, naive.steps):
            assert a.state.equals(b.state, net.algebra)


def oscillating_setpref_gadget() -> Network:
    """BAD GADGET in bgp-lite with the unsafe ``SetPref``: node i ∈
    {1, 2, 3} ranks the route through its clockwise neighbour (level 0)
    above its direct route to 0 (level 1), and rejects the neighbour's
    route once it runs through the third node — σ oscillates."""
    alg = BGPLiteAlgebra(n_nodes=4)
    net = Network(alg, 4, name="setpref-bad-gadget")
    for i in (1, 2, 3):
        nxt, third = i % 3 + 1, (i + 1) % 3 + 1
        net.set_edge(i, 0, alg.edge(i, 0, IncrPrefBy(1)))
        net.set_edge(i, nxt, alg.edge(i, nxt, Compose(
            SetPref(0), If(InPath(third), Reject()))))
    return net


class TestCertificate:
    """What a session's incremental engine reuses, and when it may not:
    every case must report exactly what a cold solve reports."""

    def _twins(self, extensions_a, extensions_b):
        """Two identical elmokashfi-24/bgp-lite sessions, edges counted,
        each with its certified clean-start fixed point."""
        out = []
        for counter in (extensions_a, extensions_b):
            net, _factory = build_scenario_network("elmokashfi-24",
                                                   "bgplite", seed=0)
            counter.install(net)
            session = RoutingSession(net, EngineSpec("incremental"))
            out.append((net, session, session.sigma().state))
            counter.take()
        return out

    def _write(self, net, counter):
        i, k = sorted(net.present_edges())[7]
        net.set_edge(i, k, counter.wrap(net.algebra.edge(i, k,
                                                         IncrPrefBy(3))))
        return net

    def test_a_copy_of_the_fixed_point_seeds_cold(self, extensions):
        other = type(extensions)()
        (net, warm_s, fp), (net2, cold_s, fp2) = self._twins(extensions,
                                                             other)
        with warm_s, cold_s:
            self._write(net, extensions)
            self._write(net2, other)
            warm = warm_s.sigma(fp)
            cold = cold_s.sigma(fp2.copy())
            # the two runs differ only in their seed round: n calls for
            # the one written arc against E·n
            edges = len(list(net.present_edges()))
            assert other.take() - extensions.take() == (edges - 1) * net.n
            ref = RoutingSession(net, "naive").sigma(fp)
        assert warm.rounds > 0
        assert_same_report(warm, cold, net.algebra)
        assert_same_report(warm, ref, net.algebra)

    def test_a_write_burst_past_the_log_seeds_cold(self, extensions):
        net, _factory = build_scenario_network("elmokashfi-24", "bgplite",
                                               seed=0)
        extensions.install(net)
        with RoutingSession(net, EngineSpec("incremental")) as session:
            fp = session.sigma().state
            edges = len(list(net.present_edges()))
            i, k = sorted(net.present_edges())[0]
            version = net.adjacency.version
            for _ in range(edges + 1):
                net.set_edge(i, k, net.edge(i, k))
            assert net.adjacency.arcs_since(version) is None
            extensions.take()
            again = session.sigma(fp)
        # the burst changed no function: a cold seed over the fixed
        # point is the whole run
        assert (again.converged, again.rounds, again.churn) == (True, 0, 0)
        assert extensions.take() == edges * net.n

    def test_the_fixed_point_twice_is_free(self, extensions):
        net, _factory = build_scenario_network("elmokashfi-24", "bgplite",
                                               seed=0)
        extensions.install(net)
        with RoutingSession(net, EngineSpec("incremental")) as session:
            fp = session.sigma().state
            extensions.take()
            for _ in range(2):
                again = session.sigma(fp)
                assert again.state is fp
                assert (again.converged, again.rounds, again.churn) == \
                    (True, 0, 0)
        assert extensions.take() == 0

    def test_an_unconverged_run_leaves_nothing_certified(self, extensions):
        net, _factory = build_scenario_network("elmokashfi-24", "bgplite",
                                               seed=0)
        extensions.install(net)
        start = RoutingState.identity(net.algebra, net.n)
        edges = len(list(net.present_edges()))
        with RoutingSession(net, EngineSpec("incremental")) as session, \
                RoutingSession(net, EngineSpec("naive")) as ref:
            fp = session.sigma().state
            cut = session.sigma(start, max_rounds=1)
            assert not cut.converged and cut.rounds == 1
            extensions.take()
            again = session.sigma(fp)
            assert (again.converged, again.rounds) == (True, 0)
            assert extensions.take() == edges * net.n       # cold
            # the cut run's only round started from ``start``: it must
            # not count as a fixed point either
            session.sigma(start, max_rounds=1)
            assert_same_report(session.sigma(start), ref.sigma(start),
                               net.algebra)

    def test_a_cycle_verdict_never_certifies(self):
        net = oscillating_setpref_gadget()
        start = RoutingState.identity(net.algebra, net.n)
        kw = dict(max_rounds=50, detect_cycles=True)
        with RoutingSession(net, EngineSpec("incremental")) as session, \
                RoutingSession(net, EngineSpec("naive")) as ref:
            cyc = session.sigma(start, keep_trajectory=True, **kw)
            assert not cyc.converged and cyc.rounds < 50
            assert_same_report(cyc, ref.sigma(start, **kw), net.algebra)
            for state in cyc.trajectory[-2:]:
                again = session.sigma(state, **kw)
                assert not again.converged
                assert_same_report(again, ref.sigma(state, **kw),
                                   net.algebra)

    def test_another_adjacency_object_seeds_cold(self):
        base, _factory = build_scenario_network("elmokashfi-24", "bgplite",
                                                seed=0)
        net, twin = base.copy(), base.copy()
        i, k = sorted(base.present_edges())[7]
        net.set_edge(i, k, net.edge(i, k))
        twin.set_edge(i, k, twin.algebra.edge(i, k, IncrPrefBy(3)))
        assert net.adjacency.version == twin.adjacency.version
        with RoutingSession(net, EngineSpec("incremental")) as session:
            fp = session.sigma().state
            session.network.adjacency = twin.adjacency
            moved = session.sigma(fp)
        ref = RoutingSession(twin, EngineSpec("naive")).sigma(fp)
        assert moved.rounds > 0
        assert_same_report(moved, ref, net.algebra)

    def test_sessions_sharing_an_adjacency_see_each_others_writes(self):
        net, _factory = build_scenario_network("elmokashfi-24", "bgplite",
                                               seed=0)
        alg, adj = net.algebra, net.adjacency
        with RoutingSession.from_parts(alg, adj, EngineSpec("incremental")) \
                as a, RoutingSession.from_parts(
                    alg, adj, EngineSpec("incremental")) as b:
            fp_a = a.sigma().state
            fp_b = b.sigma().state
            i, k = sorted(adj.present_edges())[3]
            b.network.remove_edge(i, k)
            b.sigma(fp_b)
            moved = a.sigma(fp_a)
            ref = RoutingSession.from_parts(
                alg, adj, EngineSpec("naive")).sigma(fp_a)
        assert_same_report(moved, ref, alg)
        assert moved.rounds > 0 and not moved.state.equals(fp_a, alg)
