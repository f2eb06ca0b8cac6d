"""Integration: the three engines agree.

σ (synchronous), δ (abstract asynchronous) and the event-driven
simulator are three views of one computation; for convergent networks
they must land on the same fixed point, and the simulator's trace must
be an admissible δ-schedule prefix.
"""

import pytest

from repro.core import RandomSchedule, RoutingState, synchronous_fixed_point
from repro.protocols import HOSTILE
from repro.session import RoutingSession
from tests.conftest import bgp_net, finite_net, hop_net, shortest_pv_net


NETWORK_BUILDERS = [
    (lambda: hop_net(5), "hop-ring"),
    (lambda: finite_net(4, levels=6, seed=2), "finite-ring"),
    (lambda: shortest_pv_net(4, seed=3), "shortest-pv"),
    (lambda: bgp_net(4, seed=4), "bgplite"),
]


class TestThreeEnginesAgree:
    @pytest.mark.parametrize("build,name",
                             NETWORK_BUILDERS, ids=[n for _, n in NETWORK_BUILDERS])
    def test_fixed_points_coincide(self, build, name):
        net = build()
        alg = net.algebra
        sync_fp = synchronous_fixed_point(net)

        async_res = RoutingSession(net, "incremental").delta(
            RandomSchedule(net.n, seed=5), RoutingState.identity(alg, net.n),
            max_steps=2500)
        assert async_res.converged
        assert async_res.state.equals(sync_fp, alg)

        sim_res = RoutingSession(net, "incremental").simulate(seed=6).result
        assert sim_res.converged
        assert sim_res.final_state.equals(sync_fp, alg)

    @pytest.mark.parametrize("build,name",
                             NETWORK_BUILDERS, ids=[n for _, n in NETWORK_BUILDERS])
    def test_hostile_simulator_still_agrees(self, build, name):
        net = build()
        alg = net.algebra
        sync_fp = synchronous_fixed_point(net)
        sim_res = RoutingSession(net, "incremental").simulate(
            seed=7, link_config=HOSTILE, refresh_interval=5.0,
            quiet_period=25.0).result
        assert sim_res.converged
        assert sim_res.final_state.equals(sync_fp, alg)

    @pytest.mark.parametrize("build,name",
                             NETWORK_BUILDERS, ids=[n for _, n in NETWORK_BUILDERS])
    def test_simulator_trace_is_admissible_delta_prefix(self, build, name):
        net = build()
        res = RoutingSession(net, "incremental").simulate(
            seed=8, link_config=HOSTILE, refresh_interval=5.0).result
        assert res.trace.check_schedule_axioms() == []
