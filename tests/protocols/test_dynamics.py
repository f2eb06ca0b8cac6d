"""Dynamic topologies (Section 3.2): change = new instance + stale state."""

import pytest

from repro.core import is_stable, synchronous_fixed_point
from repro.protocols import (
    ChangeScript,
    Simulator,
    TopologyChange,
    fail_edge,
    fail_link,
    set_edge,
)
from tests.conftest import hop_net, shortest_pv_net


class TestChangePrimitives:
    def test_fail_edge_removes(self):
        net = hop_net(3)
        change = fail_edge(0, 1, time=5.0)
        change.apply(net)
        assert not net.adjacency.has_edge(0, 1)
        assert net.adjacency.has_edge(1, 0)

    def test_fail_link_removes_both(self):
        net = hop_net(3)
        for change in fail_link(0, 1, time=5.0):
            change.apply(net)
        assert not net.adjacency.has_edge(0, 1)
        assert not net.adjacency.has_edge(1, 0)

    def test_set_edge_installs(self):
        net = hop_net(3)
        alg = net.algebra
        change = set_edge(0, 2, alg.edge(7), time=1.0)
        change.apply(net)
        assert net.edge(0, 2)(0) == 7


class TestReconvergence:
    def test_weight_change_reconverges(self):
        net = hop_net(5)
        alg = net.algebra
        sim = Simulator(net, seed=1, quiet_period=20.0,
                        refresh_interval=5.0)
        script = ChangeScript(sim, [set_edge(0, 1, alg.edge(9), time=40.0)])
        res = script.run()
        assert res.converged
        # the final state is the fixed point of the *new* topology
        assert res.final_state.equals(synchronous_fixed_point(net),
                                      alg)

    def test_link_failure_reroutes(self):
        net = hop_net(6)
        alg = net.algebra
        sim = Simulator(net, seed=2, quiet_period=20.0, refresh_interval=5.0)
        script = ChangeScript(sim, fail_link(0, 1, time=40.0))
        res = script.run()
        assert res.converged
        # 0 still reaches 1, the long way round the ring
        assert res.final_state.get(0, 1) == 5

    def test_partition_with_path_vector(self):
        """Failing both of node 0's links partitions it; the PV algebra
        flushes routes to 0 instead of counting to infinity."""
        net = shortest_pv_net(4, seed=3)
        alg = net.algebra
        sim = Simulator(net, seed=3, quiet_period=20.0, refresh_interval=5.0)
        changes = fail_link(0, 1, time=40.0) + fail_link(0, 3, time=40.0)
        script = ChangeScript(sim, changes)
        res = script.run()
        assert res.converged
        for other in (1, 2, 3):
            assert alg.equal(res.final_state.get(other, 0), alg.invalid)

    def test_multiple_sequential_changes(self):
        net = hop_net(5)
        alg = net.algebra
        sim = Simulator(net, seed=4, quiet_period=15.0, refresh_interval=5.0)
        script = ChangeScript(sim, [
            set_edge(0, 1, alg.edge(3), time=30.0),
            set_edge(0, 1, alg.edge(1), time=60.0),
        ])
        res = script.run()
        assert res.converged
        assert len(script.applied) == 2
        assert is_stable(net, res.final_state)

    def test_changes_applied_in_time_order(self):
        net = hop_net(4)
        alg = net.algebra
        sim = Simulator(net, seed=5, quiet_period=15.0, refresh_interval=5.0)
        script = ChangeScript(sim, [
            set_edge(0, 1, alg.edge(2), time=50.0),
            set_edge(1, 2, alg.edge(2), time=25.0),
        ])
        script.run()
        assert [c.time for c in script.applied] == [25.0, 50.0]
