"""AS-path prepending (the Section 7 extension)."""

import random

import pytest

from repro.algebras import (
    Compose,
    IncrPrefBy,
    INVALID,
    PaddedRoute,
    Prepend,
    PrependingBGPAlgebra,
    padded,
    padding_of,
    strip_padding,
)
from repro.core import BOTTOM, Network
from repro.session import RoutingSession
from repro.verification import verify_algebra, verify_path_algebra


@pytest.fixture
def rng():
    return random.Random(808)


class TestStripping:
    def test_strip_padding(self):
        assert strip_padding((3, 3, 3, 2, 0)) == (3, 2, 0)
        assert strip_padding((3, 2, 0)) == (3, 2, 0)
        assert strip_padding(()) == ()

    def test_padding_of(self):
        assert padding_of((3, 3, 3, 2, 0)) == 2
        assert padding_of((1, 0)) == 0

    def test_projection_is_simple(self):
        alg = PrependingBGPAlgebra()
        r = padded(0, (), (3, 3, 2, 2, 0))
        from repro.core import is_simple

        assert is_simple(alg.path(r))


class TestPrependPolicy:
    def test_pads_the_head(self):
        r = padded(1, {4}, (2, 0))
        out = Prepend(3).apply(r)
        assert out.raw_path == (2, 2, 2, 2, 0)
        assert out.path == (2, 0)
        assert out.lp == 1

    def test_zero_prepend_is_noop(self):
        r = padded(1, (), (2, 0))
        assert Prepend(0).apply(r) == r

    def test_empty_path_unpadded(self):
        r = padded(0, (), ())
        assert Prepend(2).apply(r) == r

    def test_invalid_fixed(self):
        assert Prepend(2).apply(INVALID) is INVALID

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Prepend(-1)

    def test_composes_with_bgplite_policies(self):
        pol = Compose(IncrPrefBy(2), Prepend(1))
        out = pol.apply(padded(0, (), (2, 0)))
        assert out.lp == 2
        assert out.raw_path == (2, 2, 0)


class TestPreferenceEffect:
    """Prepending's purpose: make a route look longer, deterring use."""

    def test_padded_route_loses_length_tie(self):
        alg = PrependingBGPAlgebra()
        plain = padded(0, (), (1, 0))
        puffed = padded(0, (), (2, 2, 0))   # same simple length, padded
        assert alg.choice(plain, puffed) == plain

    def test_padding_can_flip_a_decision(self):
        alg = PrependingBGPAlgebra()
        # without padding the 2-hop route via 2 loses to the 2-hop via 1
        a = padded(0, (), (1, 3, 0))
        b = padded(0, (), (2, 0))
        assert alg.choice(a, b) == b        # shorter raw path wins
        b_padded = padded(0, (), (2, 2, 2, 0))
        assert alg.choice(a, b_padded) == a


class TestEdgeFunctions:
    def test_extension_preserves_padding(self):
        alg = PrependingBGPAlgebra()
        f = alg.edge(3, 2, IncrPrefBy(0))
        out = f(padded(0, (), (2, 2, 0)))
        assert out.raw_path == (3, 2, 2, 0)
        assert out.path == (3, 2, 0)

    def test_loop_checked_on_stripped_path(self):
        alg = PrependingBGPAlgebra()
        f = alg.edge(0, 2, IncrPrefBy(0))
        assert f(padded(0, (), (2, 2, 1, 0))) is INVALID

    def test_prepending_edge_policy(self):
        alg = PrependingBGPAlgebra()
        f = alg.edge(3, 2, Prepend(2))
        out = f(padded(0, (), (2, 0)))
        assert out.raw_path == (3, 3, 3, 2, 0)


class TestLaws:
    def test_full_profile(self, rng):
        alg = PrependingBGPAlgebra(n_nodes=6)
        rep = verify_algebra(alg, rng=rng, samples=60)
        assert rep.is_routing_algebra, rep.table()
        assert rep.is_strictly_increasing, rep.table()

    def test_path_laws_on_stripped_projection(self, rng):
        from repro.algebras.bgplite import random_policy

        alg = PrependingBGPAlgebra(n_nodes=4)
        pairs = []
        for i in range(4):
            for j in range(4):
                if i != j:
                    pol = Compose(random_policy(rng, n_nodes=4),
                                  Prepend(rng.randint(0, 2)))
                    pairs.append((i, j, alg.edge(i, j, pol)))
        rep = verify_path_algebra(alg, pairs, rng=rng)
        assert rep.holds("P1: x = ∞̄ ⇔ path(x) = ⊥"), rep.table()
        assert rep.holds("path(x) is always simple"), rep.table()
        assert rep.holds("P3: path(A_ij(r)) follows the extension rule"), \
            rep.table()


class TestTrafficEngineering:
    def test_prepending_diverts_traffic(self):
        """The operational point: node 0 reaches 3 via 1 by default;
        after 1 prepends, traffic shifts to the path via 2 — and the
        network still converges absolutely (Theorem 11 untouched)."""
        alg = PrependingBGPAlgebra(n_nodes=4)
        plain = IncrPrefBy(0)

        def build(prepend_on_1: int) -> Network:
            net = Network(alg, 4)
            for (i, j) in [(0, 1), (1, 0), (0, 2), (2, 0),
                           (1, 3), (3, 1), (2, 3), (3, 2)]:
                pol = plain
                if prepend_on_1 and j == 1:
                    # importing from node 1: node 1's announcements are
                    # padded (model the padding on the import side)
                    pol = Prepend(prepend_on_1)
                net.set_edge(i, j, alg.edge(i, j, pol))
            return net

        before = RoutingSession(build(0), "incremental").sigma().state
        assert before.get(0, 3).path in ((0, 1, 3), (0, 2, 3))
        baseline = before.get(0, 3).path

        after = RoutingSession(build(3), "incremental").sigma().state
        diverted = after.get(0, 3).path
        if baseline == (0, 1, 3):
            assert diverted == (0, 2, 3)
        else:
            assert diverted == baseline   # already avoiding node 1
