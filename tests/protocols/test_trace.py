"""Traces and the extracted Üresin–Dubois schedule witness."""

from repro.protocols import HOSTILE
from repro.session import RoutingSession
from tests.conftest import hop_net


class TestTraceContents:
    def test_changes_recorded(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").simulate(seed=1).result
        assert res.trace.total_changes > 0
        change = res.trace.changes[0]
        assert change.old != change.new
        assert 0 <= change.node < 4 and 0 <= change.dest < 4

    def test_changes_for_node(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").simulate(seed=1).result
        for node in range(4):
            for c in res.trace.changes_for(node):
                assert c.node == node

    def test_stats_accounting(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").simulate(seed=1).result
        s = res.stats
        assert s.delivered <= s.sent
        assert s.lost == 0          # reliable default links

    def test_last_change_time(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").simulate(seed=1).result
        assert res.trace.last_change_time == \
            max(c.time for c in res.trace.changes)

    def test_empty_trace_defaults(self):
        from repro.protocols import Trace

        t = Trace()
        assert t.last_change_time == 0.0
        assert t.total_changes == 0
        assert t.check_schedule_axioms() == []


class TestScheduleWitness:
    """Every simulator run induces an admissible schedule prefix: the
    operational justification for applying Theorems 7/11 to message-
    passing protocols."""

    def test_s2_on_reliable_run(self):
        net = hop_net(5)
        res = RoutingSession(net, "incremental").simulate(seed=3).result
        assert res.trace.check_schedule_axioms() == []

    def test_s2_on_hostile_run(self):
        net = hop_net(5)
        res = RoutingSession(net, "incremental").simulate(
            seed=4, link_config=HOSTILE, refresh_interval=5.0).result
        assert res.trace.check_schedule_axioms() == []

    def test_activations_have_beta_witnesses(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").simulate(seed=5).result
        acts = res.trace.activations
        assert acts
        for act in acts:
            if act.node != act.dest:    # self-entries read no neighbours
                assert act.betas
            for (_k, gen) in act.betas:
                assert gen < act.step

    def test_steps_strictly_increase(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").simulate(seed=6).result
        steps = [a.step for a in res.trace.activations]
        assert steps == sorted(steps)
        assert len(set(steps)) == len(steps)
