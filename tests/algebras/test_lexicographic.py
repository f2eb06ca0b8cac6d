"""Lexicographic products: shortest-widest and law-profile engineering."""

import math
import random

import pytest

from repro.algebras import (
    HopCountAlgebra,
    LexicographicAlgebra,
    ShortestPathsAlgebra,
    WidestPathsAlgebra,
)
from repro.session import RoutingSession
from repro.verification import verify_algebra


def shortest_widest():
    """Widest-then-shortest: prefer bandwidth, tie-break on distance."""
    return LexicographicAlgebra(WidestPathsAlgebra(), ShortestPathsAlgebra())


@pytest.fixture
def rng():
    return random.Random(31)


class TestStructure:
    def test_distinguished_routes_are_pairs(self):
        alg = shortest_widest()
        assert alg.trivial == (math.inf, 0)
        assert alg.invalid == (0, math.inf)

    def test_choice_prefers_first_component(self):
        alg = shortest_widest()
        assert alg.choice((5, 10), (3, 1)) == (5, 10)   # wider wins

    def test_choice_ties_on_second(self):
        alg = shortest_widest()
        assert alg.choice((5, 10), (5, 2)) == (5, 2)    # shorter wins

    def test_finite_product_enumerates(self):
        alg = LexicographicAlgebra(HopCountAlgebra(2), HopCountAlgebra(1))
        assert alg.is_finite
        assert len(list(alg.routes())) == 3 * 2

    def test_name_mentions_factors(self):
        assert "widest-paths" in shortest_widest().name


class TestLaws:
    def test_required_laws(self, rng):
        rep = verify_algebra(shortest_widest(), rng=rng)
        assert rep.is_routing_algebra, rep.table()

    def test_increasing_and_strict(self, rng):
        """Widest alone is not strict, but the distance tie-break (with
        weights ≥ 1) restores strictness — the lex upgrade."""
        rep = verify_algebra(shortest_widest(), rng=rng)
        assert rep.is_increasing
        assert rep.is_strictly_increasing, rep.table()

    def test_not_distributive(self, rng):
        """The textbook policy-rich example: both factors distributive,
        the product is not (Section 8.1 mentions shortest-widest)."""
        alg = shortest_widest()
        w, s = alg.first, alg.second
        # f caps width at 2 and adds 1 to distance
        f = alg.edge(w.edge(2), s.edge(1))
        a = (3, 5)   # wide but long
        b = (2, 1)   # narrower but short
        lhs = f(alg.choice(a, b))
        rhs = alg.choice(f(a), f(b))
        assert alg.choice(a, b) == a
        assert lhs == (2, 6)
        assert rhs == (2, 2)
        assert not alg.equal(lhs, rhs)

    def test_finite_product_laws_exhaustive(self, rng):
        alg = LexicographicAlgebra(HopCountAlgebra(3), HopCountAlgebra(3))
        rep = verify_algebra(alg, rng=rng)
        assert rep.is_routing_algebra
        assert rep.is_strictly_increasing


class TestConvergence:
    def test_shortest_widest_network(self, rng):
        """A concrete non-distributive network converges to a *local*
        (not global) optimum — the paper's 'locally optimal routes'."""
        from repro.core import Network

        alg = shortest_widest()
        w, s = alg.first, alg.second
        net = Network(alg, 3)

        def edge(i, j, cap, dist):
            net.set_edge(i, j, alg.edge(w.edge(cap), s.edge(dist)))

        # 0 -- 1 direct: narrow/short; 0 -- 2 -- 1: wide/long
        edge(0, 1, 2, 1), edge(1, 0, 2, 1)
        edge(0, 2, 10, 1), edge(2, 0, 10, 1)
        edge(2, 1, 10, 1), edge(1, 2, 10, 1)
        res = RoutingSession(net, "incremental").sigma()
        assert res.converged
        # node 0 prefers the wide two-hop route to 1
        assert res.state.get(0, 1) == (10, 2)
