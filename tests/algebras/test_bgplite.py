"""BGPLite (Section 7): conditions, policies, the decision procedure,
and the safety-by-design claim."""

import random
from dataclasses import replace

import pytest

from repro.algebras import (
    AddComm,
    And,
    BGPLiteAlgebra,
    Compose,
    DelComm,
    If,
    InComm,
    IncrPrefBy,
    InPath,
    INVALID,
    LprefEq,
    Not,
    Or,
    Reject,
    SetPref,
    random_policy,
    valid,
)
from repro.core import BOTTOM
from repro.verification import verify_algebra, verify_path_algebra


@pytest.fixture
def rng():
    return random.Random(2718)


class TestConditions:
    def setup_method(self):
        self.route = valid(lp=3, communities={17, 4}, path=(2, 1, 0))

    def test_in_path(self):
        assert InPath(1).evaluate(self.route)
        assert not InPath(9).evaluate(self.route)

    def test_in_comm(self):
        """The paper's worked example: 'does this route contain the BGP
        community 17?'"""
        assert InComm(17).evaluate(self.route)
        assert not InComm(5).evaluate(self.route)

    def test_lpref_eq(self):
        assert LprefEq(3).evaluate(self.route)
        assert not LprefEq(4).evaluate(self.route)

    def test_boolean_connectives(self):
        assert And(InComm(17), InPath(2)).evaluate(self.route)
        assert not And(InComm(17), InPath(9)).evaluate(self.route)
        assert Or(InComm(5), InPath(1)).evaluate(self.route)
        assert Not(InComm(5)).evaluate(self.route)


class TestPolicies:
    def setup_method(self):
        self.route = valid(lp=2, communities={1}, path=(1, 0))

    def test_reject(self):
        assert Reject().apply(self.route) is INVALID

    def test_incr_pref(self):
        out = IncrPrefBy(3).apply(self.route)
        assert out.lp == 5
        assert out.path == self.route.path

    def test_incr_pref_rejects_negative(self):
        with pytest.raises(ValueError):
            IncrPrefBy(-1)

    def test_add_del_comm(self):
        added = AddComm(7).apply(self.route)
        assert added.communities == frozenset({1, 7})
        removed = DelComm(1).apply(added)
        assert removed.communities == frozenset({7})

    def test_del_absent_comm_is_noop(self):
        assert DelComm(9).apply(self.route).communities == frozenset({1})

    def test_compose_order(self):
        """compose p q applies p first (the Agda semantics)."""
        p = Compose(AddComm(7), If(InComm(7), IncrPrefBy(10)))
        out = p.apply(self.route)
        assert out.lp == 12           # the If sees the community p added

    def test_conditional_policy(self):
        pol = If(InComm(17), Reject())
        assert pol.apply(self.route) == self.route          # no tag: no-op
        tagged = valid(lp=0, communities={17}, path=(1, 0))
        assert pol.apply(tagged) is INVALID

    def test_every_policy_fixes_invalid(self, rng):
        for _ in range(100):
            pol = random_policy(rng)
            assert pol.apply(INVALID) is INVALID


class TestDecisionProcedure:
    """⊕ follows the paper's 4 steps (plus the community tiebreak)."""

    def setup_method(self):
        self.alg = BGPLiteAlgebra()

    def test_invalid_loses(self):
        r = valid(5, {1}, (1, 0))
        assert self.alg.choice(INVALID, r) == r
        assert self.alg.choice(r, INVALID) == r

    def test_lower_level_wins(self):
        a, b = valid(1, (), (3, 2, 1, 0)), valid(2, (), (1, 0))
        assert self.alg.choice(a, b) == a

    def test_shorter_path_breaks_level_tie(self):
        a, b = valid(1, (), (2, 0)), valid(1, (), (3, 1, 0))
        assert self.alg.choice(a, b) == a

    def test_lex_path_breaks_length_tie(self):
        a, b = valid(1, (), (1, 0)), valid(1, (), (2, 0))
        assert self.alg.choice(a, b) == a

    def test_trivial_annihilates(self):
        r = valid(0, (), (1, 0))
        assert self.alg.choice(self.alg.trivial, r) == self.alg.trivial


class TestEdgeFunctions:
    def setup_method(self):
        self.alg = BGPLiteAlgebra()

    def test_extension_and_policy(self):
        f = self.alg.edge(2, 1, IncrPrefBy(3))
        out = f(valid(1, {5}, (1, 0)))
        assert out == valid(4, {5}, (2, 1, 0))

    def test_loop_filtered(self):
        f = self.alg.edge(0, 1, IncrPrefBy(0))
        assert f(valid(0, (), (1, 2, 0))) is INVALID

    def test_source_mismatch_filtered(self):
        f = self.alg.edge(3, 2, IncrPrefBy(0))
        assert f(valid(0, (), (1, 0))) is INVALID

    def test_policy_sees_extended_path(self):
        """The Agda order: extend first, then apply policy — a policy
        matching on the *importing* edge works."""
        f = self.alg.edge(2, 1, If(InPath(2), IncrPrefBy(9)))
        out = f(valid(0, (), (1, 0)))
        assert out.lp == 9


class TestSafetyByDesign:
    """No expressible policy can break the increasing law."""

    def test_random_policies_increasing(self, rng):
        alg = BGPLiteAlgebra(n_nodes=6)
        edges = [alg.sample_edge_function(rng) for _ in range(60)]
        rep = verify_algebra(alg, edge_functions=edges, rng=rng, samples=60)
        assert rep.is_routing_algebra, rep.table()
        assert rep.is_strictly_increasing, rep.table()

    def test_path_laws(self, rng):
        alg = BGPLiteAlgebra(n_nodes=4)
        pairs = [(i, j, alg.edge(i, j, random_policy(rng, n_nodes=4)))
                 for i in range(4) for j in range(4) if i != j]
        rep = verify_path_algebra(alg, pairs, rng=rng)
        assert rep.holds("P3: path(A_ij(r)) follows the extension rule")
        assert rep.holds("P1: x = ∞̄ ⇔ path(x) = ⊥")

    def test_policy_rich_but_not_distributive(self, rng):
        """The whole point: conditionals break Eq. 1 while staying safe."""
        alg = BGPLiteAlgebra()
        f = alg.edge(2, 1, If(InComm(17), IncrPrefBy(5)))
        a = valid(0, {17}, (1, 0))
        b = valid(1, (), (1, 3, 0))
        lhs = f(alg.choice(a, b))
        rhs = alg.choice(f(a), f(b))
        assert not alg.equal(lhs, rhs)

    def test_setpref_breaks_increasing(self, rng):
        """Negative control (Section 8.2): real BGP's import-time
        local-pref overwrite violates the increasing law."""
        alg = BGPLiteAlgebra()
        unsafe = alg.edge(2, 1, SetPref(0))
        rep = verify_algebra(alg, edge_functions=[unsafe], rng=rng,
                             samples=60)
        assert not rep.is_increasing


class TestRandomPolicyGenerator:
    def test_depth_bounded_and_well_formed(self, rng):
        for _ in range(200):
            pol = random_policy(rng, depth=3)
            out = pol.apply(valid(1, {2}, (1, 0)))
            assert out is INVALID or out.lp >= 1

    def test_no_reject_option(self, rng):
        for _ in range(200):
            pol = random_policy(rng, allow_reject=False)
            out = pol.apply(valid(1, {2}, (1, 0)))
            assert out is not INVALID


def _replace_apply(policy, route):
    """The policy semantics written with ``dataclasses.replace`` for
    every rewrite: the reference the direct constructors must match."""
    if route is INVALID or isinstance(policy, Reject):
        return INVALID
    if isinstance(policy, IncrPrefBy):
        return replace(route, lp=route.lp + policy.amount)
    if isinstance(policy, SetPref):
        return replace(route, lp=policy.value)
    if isinstance(policy, AddComm):
        return replace(route, communities=route.communities
                       | {policy.community})
    if isinstance(policy, DelComm):
        return replace(route, communities=route.communities
                       - {policy.community})
    if isinstance(policy, Compose):
        return _replace_apply(policy.second,
                              _replace_apply(policy.first, route))
    assert isinstance(policy, If)
    if policy.condition.evaluate(route):
        return _replace_apply(policy.policy, route)
    return route


def _key_choice(x, y):
    """⊕ as one key comparison, communities sorted on every call."""
    if x is INVALID:
        return y
    if y is INVALID:
        return x

    def key(r):
        return (r.lp, len(r.path), r.path, tuple(sorted(r.communities)))

    return x if key(x) <= key(y) else y


class TestHotPathsMatchReference:
    """The policies' direct ``BGPRoute`` constructor and the lazy
    decision procedure give what ``replace`` and the full sort key
    give, on plain and on prepending's padded routes."""

    def _policy(self, rng):
        pol = random_policy(rng, n_nodes=6)
        if rng.random() < 0.3:
            pol = Compose(pol, SetPref(rng.randint(0, 5)))
        return pol

    @pytest.mark.parametrize("padded", [False, True])
    def test_policies_equal_replace(self, rng, padded):
        from repro.algebras.prepending import PrependingBGPAlgebra
        alg = (PrependingBGPAlgebra(n_nodes=6) if padded
               else BGPLiteAlgebra(n_nodes=6))
        for _ in range(3000):
            route, pol = alg.sample_route(rng), self._policy(rng)
            got, want = pol.apply(route), _replace_apply(pol, route)
            assert got == want and type(got) is type(want), (pol, route)

    def test_choice_equals_key_comparison(self, rng):
        alg = BGPLiteAlgebra(n_nodes=4)

        def route():
            # narrow ranges so that every tie-break step is reached
            if rng.random() < 0.05:
                return INVALID
            path = tuple(rng.sample(range(4), rng.randint(0, 2)))
            return valid(rng.randint(0, 1),
                         {c for c in range(3) if rng.random() < 0.5}, path)

        for _ in range(5000):
            x, y = route(), route()
            assert alg.choice(x, y) is _key_choice(x, y), (x, y)
