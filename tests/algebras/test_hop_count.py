"""Hop-count (RIP) algebra: the Theorem 7 workhorse."""

import random

import pytest

from repro.algebras import ConditionalHopEdge, HopCountAlgebra, UncappedHopEdge
from repro.core import Network, RoutingState
from repro.session import RoutingSession
from repro.verification import verify_algebra
from tests.conftest import hop_net


class TestLaws:
    def test_full_profile(self, rng):
        rep = verify_algebra(HopCountAlgebra(8), rng=rng)
        assert rep.is_routing_algebra
        assert rep.is_strictly_increasing, rep.table()

    def test_exhaustive_strictness(self):
        """a < min(a + w, B) for every a < B: checked over everything."""
        alg = HopCountAlgebra(16)
        for w in (1, 3, 15):
            f = alg.edge(w)
            for a in alg.routes():
                if a != alg.invalid:
                    assert alg.lt(a, f(a))
                else:
                    assert f(a) == alg.invalid


class TestConditionalPolicies:
    """Route maps (Eq. 2): strictly increasing but non-distributive."""

    def test_conditional_edge_is_strictly_increasing(self, rng):
        alg = HopCountAlgebra(16)
        edges = [ConditionalHopEdge.random(rng, 16) for _ in range(20)]
        rep = verify_algebra(alg, edge_functions=edges, rng=rng)
        assert rep.is_strictly_increasing, rep.table()

    def test_explicit_distributivity_violation(self):
        """Reproduce the paper's Eq. 2 counterexample shape: a route map
        f(a) = if a < 3 then a+5 else a+1 violates f(a ⊕ b) = f(a) ⊕ f(b)."""
        alg = HopCountAlgebra(16)
        f = ConditionalHopEdge(lambda a: a < 3, 5, 1, 16)
        a, b = 2, 4
        lhs = f(alg.choice(a, b))            # f(2) = 7
        rhs = alg.choice(f(a), f(b))         # min(7, 5) = 5
        assert lhs == 7 and rhs == 5
        assert lhs != rhs

    def test_report_flags_non_distributive(self, rng):
        alg = HopCountAlgebra(16)
        f = ConditionalHopEdge(lambda a: a < 3, 5, 1, 16)
        rep = verify_algebra(alg, edge_functions=[f], rng=rng)
        assert not rep.is_distributive
        assert rep.is_strictly_increasing

    def test_branches_must_be_strict(self):
        with pytest.raises(ValueError):
            ConditionalHopEdge(lambda a: True, 0, 1, 16)

    def test_invalid_fixed_even_when_predicate_matches(self):
        f = ConditionalHopEdge(lambda a: True, 2, 2, 16)
        assert f(16) == 16


class TestConvergenceWithPolicies:
    """Section 4.2: conditional policies do not endanger convergence."""

    def test_policy_rich_ring_converges_from_garbage(self, rng):
        alg = HopCountAlgebra(16)
        net = Network(alg, 5)
        for i in range(5):
            for j in ((i + 1) % 5, (i - 1) % 5):
                net.set_edge(i, j, ConditionalHopEdge.random(rng, 16))
        reference = None
        for _ in range(6):
            start = RoutingState.from_function(
                lambda i, j: rng.randint(0, 16), 5)
            res = RoutingSession(net, "incremental").sigma(start)
            assert res.converged
            if reference is None:
                reference = res.state
            else:
                assert res.state.equals(reference, alg)


class TestBrokenVariants:
    def test_uncapped_edge_escapes_carrier(self):
        """Negative control: dropping the cap leaves the finite carrier,
        and the uniqueness/termination guarantee evaporates with it
        (count-to-infinity again)."""
        alg = HopCountAlgebra(16)
        f = UncappedHopEdge(1)
        assert f(16) == 17            # outside S = {0..16}
        assert f(16) not in set(alg.routes())

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            HopCountAlgebra(0)
        with pytest.raises(ValueError):
            HopCountAlgebra(4).edge(0)


class TestRIPDefaults:
    def test_rip_bound_is_16(self):
        assert HopCountAlgebra().invalid == 16

    def test_ring_distances(self):
        net = hop_net(6, bound=16)
        from repro.core import synchronous_fixed_point

        fp = synchronous_fixed_point(net)
        assert fp.get(0, 3) == 3
