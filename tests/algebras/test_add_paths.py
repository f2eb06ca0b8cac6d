"""The AddPaths lift: P1–P3, the strictness upgrade, consistency."""

import random

import pytest

from repro.algebras import AddPaths, ShortestPathsAlgebra, WidestPathsAlgebra
from repro.core import BOTTOM, Network
from repro.session import RoutingSession
from repro.verification import verify_algebra, verify_path_algebra


@pytest.fixture
def rng():
    return random.Random(77)


def lifted(base_cls=ShortestPathsAlgebra, n=5):
    base = base_cls()
    return AddPaths(base, n_nodes=n), base


class TestDistinguishedRoutes:
    def test_trivial_and_invalid(self):
        alg, base = lifted()
        assert alg.trivial == (base.trivial, ())
        assert alg.path(alg.trivial) == ()
        assert alg.path(alg.invalid) is BOTTOM

    def test_invalid_quotient(self):
        """(v, ⊥) and (∞̄_base, p) are all the invalid route (P1 quotient)."""
        alg, base = lifted()
        assert alg.equal((5, BOTTOM), alg.invalid)
        assert alg.equal((base.invalid, (1, 0)), alg.invalid)
        assert not alg.equal((5, (1, 0)), alg.invalid)


class TestChoice:
    def test_prefers_better_base_value(self):
        alg, _ = lifted()
        assert alg.choice((2, (1, 0)), (5, (2, 0))) == (2, (1, 0))

    def test_ties_break_on_path_length(self):
        alg, _ = lifted()
        short = (3, (2, 0))
        long_ = (3, (2, 1, 0))
        assert alg.choice(short, long_) == short
        assert alg.choice(long_, short) == short

    def test_ties_break_lexicographically(self):
        alg, _ = lifted()
        a = (3, (1, 0))
        b = (3, (2, 0))
        assert alg.choice(a, b) == a

    def test_invalid_loses(self):
        alg, _ = lifted()
        assert alg.choice(alg.invalid, (9, (1, 0))) == (9, (1, 0))


class TestEdgeFunctions:
    def test_extension_happy_path(self):
        alg, base = lifted()
        f = alg.edge(2, 1, base.edge(3))
        assert f((4, (1, 0))) == (7, (2, 1, 0))

    def test_trivial_route_extension(self):
        alg, base = lifted()
        f = alg.edge(2, 1, base.edge(3))
        assert f(alg.trivial) == (3, (2, 1))

    def test_loop_rejected(self):
        alg, base = lifted()
        f = alg.edge(0, 1, base.edge(1))
        assert alg.equal(f((2, (1, 2, 0))), alg.invalid)

    def test_source_mismatch_rejected(self):
        alg, base = lifted()
        f = alg.edge(3, 1, base.edge(1))
        # path starts at 2, but we claim to have learned it from 1
        assert alg.equal(f((2, (2, 0))), alg.invalid)

    def test_base_filter_propagates(self):
        alg, base = lifted()
        from repro.core import ConstantEdge

        f = alg.edge(2, 1, ConstantEdge(base.invalid))
        assert alg.equal(f((4, (1, 0))), alg.invalid)

    def test_invalid_is_fixed(self):
        alg, base = lifted()
        f = alg.edge(2, 1, base.edge(3))
        assert alg.equal(f(alg.invalid), alg.invalid)


class TestLaws:
    def test_full_table1_profile(self, rng):
        alg, _ = lifted()
        rep = verify_algebra(alg, rng=rng)
        assert rep.is_routing_algebra, rep.table()

    def test_path_laws(self, rng):
        alg, base = lifted(n=4)
        pairs = [(i, j, alg.edge(i, j, base.edge(rng.randint(1, 3))))
                 for i in range(4) for j in range(4) if i != j]
        rep = verify_path_algebra(alg, pairs, rng=rng)
        for law in ("P1: x = ∞̄ ⇔ path(x) = ⊥",
                    "P2: x = 0̄ ⇒ path(x) = []",
                    "path(x) is always simple",
                    "P3: path(A_ij(r)) follows the extension rule"):
            assert rep.holds(law), rep.table()

    def test_strictness_upgrade(self, rng):
        """Increasing base (widest paths — NOT strictly increasing)
        lifts to a strictly increasing path algebra (Section 5.1)."""
        base = WidestPathsAlgebra()
        alg = AddPaths(base, n_nodes=5)
        rep = verify_algebra(alg, rng=rng)
        assert rep.is_strictly_increasing, rep.table()

    def test_non_increasing_base_stays_broken(self, rng):
        from repro.algebras import LongestPathsAlgebra

        base = LongestPathsAlgebra()
        alg = AddPaths(base, n_nodes=5)
        rep = verify_algebra(alg, rng=rng)
        assert not rep.is_increasing


class TestConsistency:
    def test_computed_routes_are_consistent(self):
        from tests.conftest import shortest_pv_net

        net = shortest_pv_net(4, seed=9)
        alg = net.algebra
        fp = RoutingSession(net, "incremental").sigma().state
        for (_i, _j, r) in fp.entries():
            assert alg.is_consistent(r, net)

    def test_garbage_routes_are_inconsistent(self):
        from tests.conftest import shortest_pv_net

        net = shortest_pv_net(4, seed=9)
        alg = net.algebra
        assert not alg.is_consistent((123, (3, 2, 1, 0)), net)


class TestCountToInfinityRepair:
    """The Section 5 headline: the lift converges where plain DV loops."""

    def test_pv_converges_from_stale_state(self):
        from repro.topologies import count_to_infinity_pv

        net, stale = count_to_infinity_pv()
        res = RoutingSession(net, "incremental").sigma(stale, max_rounds=50)
        assert res.converged
        # destination 0 is unreachable: all routes to it invalid
        alg = net.algebra
        assert alg.equal(res.state.get(1, 0), alg.invalid)
        assert alg.equal(res.state.get(2, 0), alg.invalid)

    def test_dv_diverges_from_same_scenario(self):
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").sigma(stale, max_rounds=100)
        assert not res.converged
        # distances grew without bound — the count-to-infinity signature
        assert res.state.get(1, 0) > 50
