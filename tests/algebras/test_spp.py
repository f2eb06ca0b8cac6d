"""SPP gadgets: the negative controls (wedgies and oscillation)."""

import random

import pytest

from repro.algebras import (
    SPP_INVALID,
    SPPAlgebra,
    bad_gadget,
    disagree,
    good_gadget,
    increasing_disagree,
    spp_fixed_point_candidates,
)
from repro.analysis import (
    enumerate_fixed_points,
    multistart_fixed_points,
    sync_oscillates,
)
from repro.core import BOTTOM, RoutingState
from repro.verification import verify_algebra


@pytest.fixture
def rng():
    return random.Random(11)


class TestAlgebraMechanics:
    def setup_method(self):
        self.net = disagree()
        self.alg = self.net.algebra

    def test_rank_lookup(self):
        assert self.alg.rank_of(1, (1, 2, 0)) == 0
        assert self.alg.rank_of(1, (1, 0)) == 1
        assert self.alg.rank_of(1, (1, 9, 0)) is None

    def test_edge_ranks_with_head_node_table(self):
        f = self.alg.edge(1, 2)
        assert f((1, (2, 0))) == (0, (1, 2, 0))

    def test_unranked_path_filtered(self):
        f = self.alg.edge(2, 0)           # path (2, 0) is ranked though
        assert f(self.alg.trivial) == (1, (2, 0))
        g = self.alg.edge(0, 1)           # node 0 ranks nothing
        assert g((1, (1, 0))) == SPP_INVALID

    def test_loop_filtered(self):
        f = self.alg.edge(2, 1)
        assert f((0, (1, 2, 0))) == SPP_INVALID

    def test_path_projection(self):
        assert self.alg.path(SPP_INVALID) is BOTTOM
        assert self.alg.path((0, (1, 2, 0))) == (1, 2, 0)

    def test_required_laws_hold(self, rng):
        """SPP algebras are genuine routing algebras — only the
        *increasing* law is violated."""
        rep = verify_algebra(self.alg, rng=rng)
        assert rep.is_routing_algebra, rep.table()

    def test_not_increasing(self, rng):
        rep = verify_algebra(self.alg, rng=rng, samples=60)
        assert not rep.is_increasing


class TestDisagree:
    """The BGP wedgie: two stable states."""

    def test_exactly_two_stable_columns(self):
        net = disagree()
        census = enumerate_fixed_points(
            net, candidates={0: spp_fixed_point_candidates(net)}, dests=[0])
        assert census.per_destination[0] == 2

    def test_both_states_reachable(self):
        net = disagree()
        report = multistart_fixed_points(net, n_starts=8, seed=4,
                                         max_steps=600)
        assert report.wedged
        assert len(report.fixed_points) == 2

    def test_wedge_contents(self):
        """The two stable states are the expected route assignments."""
        net = disagree()
        census = enumerate_fixed_points(
            net, candidates={0: spp_fixed_point_candidates(net)}, dests=[0])
        cols = {tuple(c[1:]) for c in census.columns[0]}
        wedge_a = ((1, (1, 0)), (0, (2, 1, 0)))   # 1 direct, 2 via 1
        wedge_b = ((0, (1, 2, 0)), (1, (2, 0)))   # 2 direct, 1 via 2
        assert cols == {wedge_a, wedge_b}


class TestBadGadget:
    def test_no_stable_state(self):
        net = bad_gadget()
        census = enumerate_fixed_points(
            net, candidates={0: spp_fixed_point_candidates(net)}, dests=[0])
        assert census.per_destination[0] == 0

    def test_sync_oscillation(self):
        assert sync_oscillates(bad_gadget())


class TestGoodGadget:
    def test_unique_stable_state_despite_non_increasing(self):
        """Sufficient, not necessary: GOOD GADGET violates increasing
        yet converges absolutely."""
        net = good_gadget()
        census = enumerate_fixed_points(
            net, candidates={0: spp_fixed_point_candidates(net)}, dests=[0])
        assert census.per_destination[0] == 1
        assert not sync_oscillates(net)


class TestIncreasingRepair:
    def test_unique_stable_state(self):
        net = increasing_disagree()
        census = enumerate_fixed_points(
            net, candidates={0: spp_fixed_point_candidates(net)}, dests=[0])
        assert census.per_destination[0] == 1

    def test_repaired_algebra_is_increasing_on_its_network(self):
        """Rank grows with path length in the repaired tables."""
        net = increasing_disagree()
        alg = net.algebra
        for (i, j) in net.present_edges():
            f = net.edge(i, j)
            for node, table in alg.rankings.items():
                for path, rank in table.items():
                    r = (rank, path)
                    out = f(r)
                    if out != SPP_INVALID:
                        assert alg.lt(r, out) or alg.equal(r, out) is False

    def test_all_runs_reach_the_same_state(self):
        net = increasing_disagree()
        report = multistart_fixed_points(net, n_starts=8, seed=5,
                                         max_steps=600)
        assert not report.wedged
        assert report.converged_runs == report.runs
