"""Event-driven simulator: convergence, pathologies, determinism."""

import pytest

from repro.core import RoutingState, is_stable, synchronous_fixed_point
from repro.protocols import HOSTILE, RELIABLE, LinkConfig, Simulator
from repro.session import RoutingSession
from tests.conftest import bgp_net, hop_net, shortest_pv_net


class TestReliableConvergence:
    def test_reaches_sigma_fixed_point(self):
        net = hop_net(5)
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").simulate(seed=1).result
        assert res.converged and res.quiesced
        assert res.final_state.equals(fp, net.algebra)

    def test_path_vector_network(self):
        net = shortest_pv_net(5, seed=2)
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").simulate(seed=3).result
        assert res.converged
        assert res.final_state.equals(fp, net.algebra)

    def test_bgp_network(self):
        net = bgp_net(5, seed=4)
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").simulate(seed=5).result
        assert res.converged
        assert res.final_state.equals(fp, net.algebra)


class TestArbitraryStarts:
    def test_converges_from_garbage(self, rng):
        from repro.core import random_state

        net = hop_net(4)
        fp = synchronous_fixed_point(net)
        for seed in range(3):
            start = random_state(net.algebra, 4, rng)
            res = RoutingSession(net, "incremental").simulate(
                start=start, seed=seed).result
            assert res.converged
            assert res.final_state.equals(fp, net.algebra)


class TestHostileChannels:
    """Loss + duplication + reordering: the Section 3 pathologies."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_under_loss_dup_reorder(self, seed):
        net = hop_net(5)
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").simulate(
            seed=seed, link_config=HOSTILE, refresh_interval=5.0,
            quiet_period=25.0).result
        assert res.converged, "hostile channels must not break convergence"
        assert res.final_state.equals(fp, net.algebra)

    def test_pathologies_actually_happened(self):
        net = hop_net(5)
        res = RoutingSession(net, "incremental").simulate(
            seed=7, link_config=HOSTILE, refresh_interval=5.0,
            quiet_period=25.0).result
        assert res.stats.lost > 0
        assert res.stats.duplicated > 0
        assert res.stats.delivered < res.stats.sent

    def test_fifo_links(self):
        net = hop_net(4)
        cfg = LinkConfig(min_delay=0.1, max_delay=3.0, fifo=True)
        res = RoutingSession(net, "incremental").simulate(
            seed=9, link_config=cfg).result
        assert res.converged


class TestDeterminism:
    def test_same_seed_same_run(self):
        net = hop_net(4)
        a = RoutingSession(net.copy(), "incremental").simulate(
            seed=42, link_config=HOSTILE, refresh_interval=5.0).result
        b = RoutingSession(net.copy(), "incremental").simulate(
            seed=42, link_config=HOSTILE, refresh_interval=5.0).result
        assert a.final_state == b.final_state
        assert a.stats.as_dict() == b.stats.as_dict()
        assert a.sim_time == b.sim_time

    def test_different_seed_different_trace(self):
        net = hop_net(4)
        a = RoutingSession(net.copy(), "incremental").simulate(
            seed=1, link_config=HOSTILE, refresh_interval=5.0).result
        b = RoutingSession(net.copy(), "incremental").simulate(
            seed=2, link_config=HOSTILE, refresh_interval=5.0).result
        assert a.stats.as_dict() != b.stats.as_dict() or \
            a.sim_time != b.sim_time


class TestSimulatorInternals:
    def test_out_neighbours(self):
        net = hop_net(3, arcs=[(0, 1), (1, 2)])
        sim = Simulator(net)
        # who imports from node 1? node 0 has edge (0,1)
        assert sim._out_neighbours(1) == [0]
        assert sim._out_neighbours(0) == []

    def test_per_link_config(self):
        net = hop_net(3)
        lossy = LinkConfig(loss=0.9)
        sim = Simulator(net, link_config={(0, 1): lossy})
        assert sim.link(0, 1) is lossy
        assert sim.link(1, 0) is RELIABLE

    def test_current_state_roundtrip(self):
        net = hop_net(3)
        sim = Simulator(net)
        X = RoutingState.filled(3, 3)
        sim.load_state(X)
        assert sim.current_state() == X

    def test_quiesced_state_is_stable(self):
        net = hop_net(6)
        res = RoutingSession(net, "incremental").simulate(seed=11).result
        assert res.quiesced
        assert is_stable(net, res.final_state)

    def test_convergence_time_reported(self):
        net = hop_net(5)
        res = RoutingSession(net, "incremental").simulate(seed=12).result
        assert 0 < res.convergence_time <= res.sim_time


class TestLinkConfigValidation:
    def test_delay_bounds(self):
        with pytest.raises(ValueError):
            LinkConfig(min_delay=0)
        with pytest.raises(ValueError):
            LinkConfig(min_delay=2.0, max_delay=1.0)

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            LinkConfig(loss=1.0)
        with pytest.raises(ValueError):
            LinkConfig(duplicate=1.5)
