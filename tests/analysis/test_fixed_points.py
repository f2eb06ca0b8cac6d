"""Fixed-point search: exhaustive column enumeration vs multistart."""

import pytest

from repro.algebras import (
    bad_gadget,
    disagree,
    spp_fixed_point_candidates,
)
from repro.analysis import (
    enumerate_fixed_points,
    multistart_fixed_points,
    stable_columns,
    sync_oscillates,
)
from repro.core import is_stable, RoutingState, synchronous_fixed_point
from repro.session import RoutingSession
from tests.conftest import hop_net, shortest_pv_net


class TestStableColumns:
    def test_hop_ring_has_unique_columns(self):
        net = hop_net(3, bound=6)
        for d in range(3):
            cols = stable_columns(net, d, list(net.algebra.routes()))
            assert len(cols) == 1

    def test_columns_match_global_fixed_point(self):
        net = hop_net(3, bound=6)
        fp = synchronous_fixed_point(net)
        for d in range(3):
            [col] = stable_columns(net, d, list(net.algebra.routes()))
            assert list(col) == fp.column(d)


class TestEnumerate:
    def test_census_total_is_product(self):
        net = disagree()
        cands = {d: spp_fixed_point_candidates(net) for d in range(3)}
        census = enumerate_fixed_points(net, candidates=cands)
        assert census.total == \
            census.per_destination[0] * census.per_destination[1] * \
            census.per_destination[2]

    def test_path_algebra_candidates_derived_automatically(self):
        net = shortest_pv_net(3, seed=1)
        census = enumerate_fixed_points(net, dests=[0])
        assert census.per_destination[0] == 1

    def test_infinite_non_path_algebra_requires_candidates(self):
        from repro.algebras import ShortestPathsAlgebra
        from repro.core import Network

        alg = ShortestPathsAlgebra()
        net = Network(alg, 2)
        net.set_edge(0, 1, alg.edge(1))
        net.set_edge(1, 0, alg.edge(1))
        with pytest.raises(ValueError):
            enumerate_fixed_points(net, dests=[0])

    def test_enumerated_columns_assemble_into_stable_states(self):
        net = hop_net(3, bound=6)
        census = enumerate_fixed_points(net)
        rows = [[None] * 3 for _ in range(3)]
        for d in range(3):
            [col] = census.columns[d]
            for i in range(3):
                rows[i][d] = col[i]
        assert is_stable(net, RoutingState(rows))


class TestMultistart:
    def test_unique_for_strictly_increasing(self):
        net = hop_net(4, bound=8)
        report = multistart_fixed_points(net, n_starts=4, seed=1)
        assert report.converged_runs == report.runs
        assert len(report.fixed_points) == 1
        assert not report.wedged

    def test_divergence_counted(self):
        report = multistart_fixed_points(bad_gadget(), n_starts=2, seed=1,
                                         max_steps=300)
        assert report.diverged > 0


class TestSyncOscillates:
    def test_stable_network_does_not_oscillate(self):
        assert not sync_oscillates(hop_net(4))

    def test_divergence_is_not_oscillation(self):
        """Count-to-infinity never repeats a state (distances grow), so
        it is divergence-without-cycle: sync_oscillates must say False
        while RoutingSession.sigma still reports non-convergence."""
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        assert not sync_oscillates(net, start=stale, max_rounds=60)
        res = RoutingSession(net, "incremental").sigma(
            stale, max_rounds=60, detect_cycles=True)
        assert not res.converged
