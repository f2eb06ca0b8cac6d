"""Gao–Rexford as a strictly increasing algebra (the Sobrinho embedding)."""

import random

import pytest

from repro.algebras import GaoRexfordAlgebra, GR_INVALID, Rel
from repro.core import BOTTOM, RoutingState
from repro.session import RoutingSession
from repro.topologies import gao_rexford_hierarchy
from repro.verification import verify_algebra


@pytest.fixture
def rng():
    return random.Random(404)


class TestExportRules:
    """Valley-free: peer/provider routes are only exported to customers."""

    def setup_method(self):
        self.alg = GaoRexfordAlgebra(n_nodes=6)

    def test_provider_exports_everything_to_customer(self):
        # edge i <- j where j is i's PROVIDER (so i is j's customer)
        f = self.alg.edge(2, 1, Rel.PROVIDER)
        for tag in (0, 1, 2):
            out = f((tag, (1, 0)))
            assert out != GR_INVALID
            assert out == (int(Rel.PROVIDER), (2, 1, 0))

    def test_customer_route_exports_to_peer(self):
        f = self.alg.edge(2, 1, Rel.PEER)
        assert f((0, (1, 0))) == (int(Rel.PEER), (2, 1, 0))

    def test_peer_route_not_exported_to_peer(self):
        f = self.alg.edge(2, 1, Rel.PEER)
        assert f((1, (1, 0))) == GR_INVALID

    def test_provider_route_not_exported_upward(self):
        # j is i's CUSTOMER: j exports to its provider i
        f = self.alg.edge(2, 1, Rel.CUSTOMER)
        assert f((2, (1, 0))) == GR_INVALID
        assert f((1, (1, 0))) == GR_INVALID
        assert f((0, (1, 0))) == (int(Rel.CUSTOMER), (2, 1, 0))

    def test_loop_rejected(self):
        f = self.alg.edge(0, 1, Rel.CUSTOMER)
        assert f((0, (1, 0))) == GR_INVALID


class TestPreference:
    def test_customer_beats_peer_beats_provider(self):
        alg = GaoRexfordAlgebra()
        cust = (0, (3, 0))
        peer = (1, (2, 0))
        prov = (2, (1, 0))
        assert alg.choice(cust, peer) == cust
        assert alg.choice(peer, prov) == peer
        assert alg.choice(cust, prov) == cust

    def test_path_length_breaks_tag_tie(self):
        alg = GaoRexfordAlgebra()
        short = (0, (2, 0))
        long_ = (0, (3, 1, 0))
        assert alg.choice(long_, short) == short


class TestLaws:
    def test_full_profile(self, rng):
        alg = GaoRexfordAlgebra(n_nodes=6)
        rep = verify_algebra(alg, rng=rng, samples=60)
        assert rep.is_routing_algebra, rep.table()
        assert rep.is_strictly_increasing, rep.table()

    def test_path_projection(self):
        alg = GaoRexfordAlgebra()
        assert alg.path(GR_INVALID) is BOTTOM
        assert alg.path((0, (1, 0))) == (1, 0)
        assert alg.path(alg.trivial) == ()


class TestHierarchyConvergence:
    def test_unique_convergence_on_hierarchy(self, rng):
        net, rels = gao_rexford_hierarchy(2, 3, 5, seed=1)
        alg = net.algebra
        reference = RoutingSession(net, "incremental").sigma().state
        for seed in range(3):
            r = random.Random(seed)
            start = RoutingState.from_function(
                lambda i, j: alg.sample_route(r), net.n)
            res = RoutingSession(net, "incremental").sigma(start)
            assert res.converged
            assert res.state.equals(reference, alg)

    def test_relationships_are_symmetric_inverses(self):
        _net, rels = gao_rexford_hierarchy(2, 3, 5, seed=2)
        inverse = {Rel.CUSTOMER: Rel.PROVIDER, Rel.PROVIDER: Rel.CUSTOMER,
                   Rel.PEER: Rel.PEER}
        for (i, j), rel in rels.items():
            assert rels[(j, i)] == inverse[rel]

    def test_valley_free_fixed_point(self):
        """No route in the fixed point descends then re-ascends: once a
        route is learned from a peer/provider it never flows up again."""
        net, rels = gao_rexford_hierarchy(2, 3, 4, seed=3)
        alg = net.algebra
        fp = RoutingSession(net, "incremental").sigma().state
        for (_i, _j, r) in fp.entries():
            if r == GR_INVALID or r == alg.trivial:
                continue
            tag, path = r
            # the route's tag is how its owner learned it: the first hop
            assert tag == int(rels[(path[0], path[1])])
            # valley-free: every non-final hop (i_k -> i_{k+1}) must have
            # been exportable by i_k to i_{k-1}: either i_{k-1} is i_k's
            # customer, or i_k learned the route from its own customer.
            for k in range(1, len(path) - 1):
                downstream, here, upstream = path[k - 1], path[k], path[k + 1]
                exported_to_customer = \
                    rels[(downstream, here)] == Rel.PROVIDER
                learned_from_customer = \
                    rels[(here, upstream)] == Rel.CUSTOMER
                assert exported_to_customer or learned_from_customer
