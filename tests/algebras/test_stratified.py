"""Stratified shortest paths and its embedding into BGPLite."""

import random

import pytest

from repro.algebras import (
    AddDistance,
    AddPaths,
    BGPLiteAlgebra,
    Compose,
    Filtered,
    IncrPrefBy,
    RaiseLevel,
    StratifiedAlgebra,
    valid,
)
from repro.core import Network
from repro.session import RoutingSession
from repro.verification import verify_algebra


@pytest.fixture
def rng():
    return random.Random(55)


class TestLaws:
    def test_full_profile(self, rng):
        rep = verify_algebra(StratifiedAlgebra(), rng=rng)
        assert rep.is_routing_algebra, rep.table()
        assert rep.is_strictly_increasing, rep.table()

    def test_add_and_raise_alone_are_distributive(self):
        """AddDistance and RaiseLevel are monotone over the total order,
        and a selective ⊕ distributes over every monotone map — so the
        restricted policy set is classical."""
        alg = StratifiedAlgebra()
        rep = verify_algebra(
            alg, edge_functions=[AddDistance(3), RaiseLevel(1), Filtered()],
            rng=random.Random(0))
        assert rep.is_distributive

    def test_level_map_breaks_distributivity(self):
        """A non-monotone level map ({0 → 2, 1 → 1}) reverses
        preferences across the edge: f(a ⊕ b) ≠ f(a) ⊕ f(b)."""
        alg = StratifiedAlgebra()
        f = alg.level_map({0: 2, 1: 1}, add=1)
        a = (0, 5)     # preferred before the edge
        b = (1, 3)
        assert alg.choice(a, b) == a
        lhs = f(alg.choice(a, b))            # f(a) = (2, 0)
        rhs = alg.choice(f(a), f(b))         # min((2,0), (1,4)) = (1,4)
        assert lhs == (2, 0) and rhs == (1, 4)
        assert not alg.equal(lhs, rhs)

    def test_level_map_still_strictly_increasing(self, rng):
        alg = StratifiedAlgebra()
        edges = [alg.level_map({0: 2, 1: 1}, add=1)]
        edges += [type(edges[0]).random(rng, 4) for _ in range(20)]
        rep = verify_algebra(alg, edge_functions=edges, rng=rng)
        assert rep.is_strictly_increasing, rep.table()
        assert not rep.is_distributive

    def test_level_map_validation(self):
        alg = StratifiedAlgebra()
        with pytest.raises(ValueError):
            alg.level_map({2: 1})      # lowers a level
        with pytest.raises(ValueError):
            alg.level_map({0: 0}, add=0)

    def test_level_and_distance_semantics(self):
        alg = StratifiedAlgebra()
        assert AddDistance(3)((2, 5)) == (2, 8)
        assert RaiseLevel(2)((1, 7)) == (3, 0)
        assert Filtered()((0, 0)) == alg.invalid

    def test_invalid_fixed(self):
        alg = StratifiedAlgebra()
        for f in (AddDistance(1), RaiseLevel(1), Filtered()):
            assert f(alg.invalid) == alg.invalid

    def test_validation(self):
        with pytest.raises(ValueError):
            AddDistance(0)
        with pytest.raises(ValueError):
            RaiseLevel(0)


class TestPreference:
    def test_lower_level_always_wins(self):
        alg = StratifiedAlgebra()
        assert alg.choice((0, 999), (1, 0)) == (0, 999)

    def test_distance_breaks_level_tie(self):
        alg = StratifiedAlgebra()
        assert alg.choice((1, 3), (1, 7)) == (1, 3)


class TestConvergence:
    def test_mixed_policy_line(self):
        alg = StratifiedAlgebra()
        net = Network(alg, 4)
        net.set_edge(0, 1, alg.add(1))
        net.set_edge(1, 0, alg.add(1))
        net.set_edge(1, 2, alg.raise_level())
        net.set_edge(2, 1, alg.raise_level())
        net.set_edge(2, 3, alg.add(2))
        net.set_edge(3, 2, alg.add(2))
        res = RoutingSession(net, "incremental").sigma()
        assert res.converged
        # node 0's route to 3 crosses the level boundary once
        assert res.state.get(0, 3) == (1, 1)


class TestBGPLiteEmbedding:
    """The paper: BGPLite 'is a superset of the Stratified Shortest
    Paths algebra'.  Witness: map level -> local-pref and distance ->
    path length; every stratified edge policy has a BGPLite policy with
    the same preference behaviour."""

    def embed_edge(self, alg_bgp, i, j, strat_edge):
        if isinstance(strat_edge, Filtered):
            from repro.algebras import Reject

            return alg_bgp.edge(i, j, Reject())
        if isinstance(strat_edge, RaiseLevel):
            # jumping k levels: raise lp by a stride large enough to
            # dominate any path-length difference
            return alg_bgp.edge(i, j, IncrPrefBy(100 * strat_edge.k))
        # AddDistance(w): path length already grows by 1 per hop; extra
        # weight becomes a small lp bump that cannot cross a stride
        return alg_bgp.edge(i, j, IncrPrefBy(strat_edge.weight - 1))

    def test_embedding_preserves_fixed_point_shape(self):
        """Build the same topology in both algebras (unit weights) and
        check the winning *paths* coincide."""
        strat = StratifiedAlgebra()
        snet = Network(strat, 4)
        bgp = BGPLiteAlgebra(n_nodes=4)
        bnet = Network(bgp, 4)
        arcs = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2),
                (0, 3), (3, 0)]
        for (i, j) in arcs:
            if (i, j) in ((0, 3), (3, 0)):
                snet.set_edge(i, j, strat.raise_level())
                bnet.set_edge(i, j, self.embed_edge(bgp, i, j,
                                                    strat.raise_level()))
            else:
                snet.set_edge(i, j, strat.add(1))
                bnet.set_edge(i, j, self.embed_edge(bgp, i, j, strat.add(1)))
        sres = RoutingSession(snet, "incremental").sigma()
        bres = RoutingSession(bnet, "incremental").sigma()
        assert sres.converged and bres.converged
        # compare reachability and level structure entry-wise
        for i in range(4):
            for j in range(4):
                s_route = sres.state.get(i, j)
                b_route = bres.state.get(i, j)
                s_valid = not strat.equal(s_route, strat.invalid)
                b_valid = not bgp.equal(b_route, bgp.invalid)
                assert s_valid == b_valid
                if s_valid and i != j:
                    level = s_route[0]
                    assert b_route.lp // 100 == level
