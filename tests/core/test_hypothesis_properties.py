"""Property-based tests (hypothesis) over the space of finite algebras.

Theorems 7/11 quantify over *all* algebras satisfying their hypotheses;
hand-picked examples cannot cover that.  These strategies generate
arbitrary finite chain algebras with arbitrary strictly-increasing
table edges and arbitrary small topologies, then check the paper's
invariants on every draw:

* the Table 1 laws of the construction,
* Lemma 1 (diagonals), Lemma 5 (ultrametric axioms), Lemma 6 (strict
  contraction),
* the Theorem 7 conclusion itself: σ and δ converge from arbitrary
  states to one fixed point.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algebras import FiniteLevelAlgebra
from repro.core import (
    DistanceVectorUltrametric,
    Network,
    RandomSchedule,
    RoutingState,
    check_ultrametric_axioms,
    is_stable,
    sigma,
)
from repro.session import RoutingSession

LEVELS = 5   # carrier {0..5}: small enough for exhaustive sub-checks


@st.composite
def strict_tables(draw):
    """A lookup table g with g(x) > x (strictly increasing) and g(m)=m."""
    table = [draw(st.integers(min_value=x + 1, max_value=LEVELS))
             for x in range(LEVELS)]
    table.append(LEVELS)
    return table


@st.composite
def small_networks(draw):
    """A connected-ish digraph on 3–4 nodes with strict table edges."""
    alg = FiniteLevelAlgebra(LEVELS)
    n = draw(st.integers(min_value=3, max_value=4))
    net = Network(alg, n)
    # ring backbone guarantees strong connectivity
    for i in range(n):
        net.set_edge(i, (i + 1) % n,
                     alg.table_edge(draw(strict_tables())))
        net.set_edge((i + 1) % n, i,
                     alg.table_edge(draw(strict_tables())))
    # optional chords
    for i in range(n):
        for j in range(n):
            if i != j and not net.adjacency.has_edge(i, j):
                if draw(st.booleans()):
                    net.set_edge(i, j, alg.table_edge(draw(strict_tables())))
    return net


@st.composite
def states_for(draw, n):
    rows = [[draw(st.integers(min_value=0, max_value=LEVELS))
             for _ in range(n)] for _ in range(n)]
    return RoutingState(rows)


class TestTableEdgeProperties:
    @given(strict_tables())
    def test_generated_tables_are_strict(self, table):
        alg = FiniteLevelAlgebra(LEVELS)
        edge = alg.table_edge(table)
        assert edge.is_strictly_increasing
        for x in range(LEVELS):
            assert alg.lt(x, edge(x))

    @given(strict_tables(), strict_tables())
    def test_strict_edges_compose_to_strict(self, t1, t2):
        """Closure under composition — route-map stacking stays safe."""
        from repro.core import ComposedEdge

        alg = FiniteLevelAlgebra(LEVELS)
        f = ComposedEdge(alg.table_edge(t1), alg.table_edge(t2))
        for x in range(LEVELS):
            assert alg.lt(x, f(x))
        assert f(LEVELS) == LEVELS


class TestUltrametricProperties:
    @given(st.lists(st.integers(min_value=0, max_value=LEVELS),
                    min_size=3, max_size=6))
    def test_axioms_on_arbitrary_route_samples(self, routes):
        alg = FiniteLevelAlgebra(LEVELS)
        metric = DistanceVectorUltrametric(alg)
        for outcome in check_ultrametric_axioms(metric, routes):
            assert outcome.holds, outcome


class TestSigmaProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_networks(), st.data())
    def test_lemma1_diagonal(self, net, data):
        X = data.draw(states_for(net.n))
        out = sigma(net, X)
        for i in range(net.n):
            assert out.get(i, i) == net.algebra.trivial

    @settings(max_examples=25, deadline=None)
    @given(small_networks(), st.data())
    def test_lemma6_strict_contraction(self, net, data):
        metric = DistanceVectorUltrametric(net.algebra)
        X = data.draw(states_for(net.n))
        Y = data.draw(states_for(net.n))
        if X.equals(Y, net.algebra):
            return
        before = metric.state_distance(X, Y)
        after = metric.state_distance(sigma(net, X), sigma(net, Y))
        assert before > after

    @settings(max_examples=25, deadline=None)
    @given(small_networks(), st.data())
    def test_theorem7_sync_unique_fixed_point(self, net, data):
        alg = net.algebra
        ref = RoutingSession(net, "incremental").sigma()
        assert ref.converged
        X = data.draw(states_for(net.n))
        res = RoutingSession(net, "incremental").sigma(X)
        assert res.converged
        assert res.state.equals(ref.state, alg)
        assert is_stable(net, res.state)

    @settings(max_examples=10, deadline=None)
    @given(small_networks(), st.data(),
           st.integers(min_value=0, max_value=999))
    def test_theorem7_async_absolute(self, net, data, seed):
        alg = net.algebra
        ref = RoutingSession(net, "incremental").sigma().state
        X = data.draw(states_for(net.n))
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(net.n, seed=seed), X, max_steps=600)
        assert res.converged
        assert res.state.equals(ref, alg)

    @settings(max_examples=25, deadline=None)
    @given(small_networks(), st.data())
    def test_convergence_within_certified_bound(self, net, data):
        """Lemma 2's chain argument: rounds ≤ H."""
        from repro.analysis import dv_bounds

        bound = dv_bounds(net.algebra).sync_round_bound
        X = data.draw(states_for(net.n))
        res = RoutingSession(net, "incremental").sigma(X, max_rounds=bound + 1)
        assert res.converged
        assert res.rounds <= bound
