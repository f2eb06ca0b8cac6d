"""Equivalence tests: incremental σ/δ engines vs the literal definitions.

The incremental engine (dirty-set propagation, structural row sharing,
bounded δ history) must be *observationally identical* to the naive
full-recompute engines on every algebra — same iterates, same fixed
points, same convergence rounds — including after mid-run topology
changes (the cache-invalidation regression tests).
"""

import random

import pytest

from repro.algebras import (
    BGPLiteAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
)
from repro.algebras.bgplite import random_policy
from repro.core import (
    AdversarialStaleSchedule,
    BoundedHistory,
    FixedDelaySchedule,
    IncrementalEngine,
    RandomSchedule,
    RoundRobinSchedule,
    RoutingState,
    SynchronousSchedule,
    delta_step,
    delta_step_literal,
    sigma,
    sigma_propagate,
    sigma_with_dirty,
)
from repro.algebras import bad_gadget, good_gadget, increasing_disagree
from repro.session import RoutingSession
from repro.topologies import (
    erdos_renyi,
    gao_rexford_hierarchy,
    uniform_weight_factory,
)


def _sp_net(n=12, p=0.25, seed=0):
    alg = ShortestPathsAlgebra()
    return erdos_renyi(alg, n, p, uniform_weight_factory(alg, 1, 9), seed=seed)


def _bgp_net(n=8, p=0.35, seed=0, allow_reject=True):
    alg = BGPLiteAlgebra(n_nodes=n)

    def factory(rng, i, j):
        pol = random_policy(rng, alg.community_universe, n,
                            allow_reject=allow_reject)
        return alg.edge(i, j, pol)

    return erdos_renyi(alg, n, p, factory, seed=seed)


def _gr_net(seed=0):
    net, _rels = gao_rexford_hierarchy(seed=seed)
    return net


#: name → zero-arg network builder covering four qualitatively different
#: algebras, as the equivalence satellite demands.
NETWORKS = {
    "shortest-paths": lambda: _sp_net(seed=3),
    "bgplite": lambda: _bgp_net(seed=5),
    "gao-rexford": lambda: _gr_net(seed=7),
    "spp-good-gadget": good_gadget,
    "spp-increasing-disagree": increasing_disagree,
    "spp-bad-gadget": bad_gadget,        # oscillates: lockstep-only
}


def lockstep(net, start, rounds):
    """Run naive σ and incremental propagation side by side; assert the
    iterates agree every round and dirty-emptiness ⟺ σ-stability."""
    alg = net.algebra
    naive = start
    inc, dirty = start, None
    for _ in range(rounds):
        naive_next = sigma(net, naive)
        if dirty is None:
            inc, dirty = sigma_with_dirty(net, inc)
        else:
            inc, dirty = sigma_propagate(net, inc, dirty)
        assert inc.equals(naive_next, alg)
        assert (not dirty) == naive_next.equals(naive, alg)
        naive = naive_next
    return naive


class TestSigmaEquivalence:
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_lockstep_from_identity(self, name):
        net = NETWORKS[name]()
        start = RoutingState.identity(net.algebra, net.n)
        lockstep(net, start, rounds=12)

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_lockstep_from_random_garbage(self, name):
        net = NETWORKS[name]()
        rng = random.Random(99)
        try:
            start = RoutingState.from_function(
                lambda i, j: net.algebra.sample_route(rng), net.n)
        except NotImplementedError:
            pytest.skip(f"{name}: no route sampler")
        lockstep(net, start, rounds=10)

    @pytest.mark.parametrize("name", ["shortest-paths", "bgplite",
                                      "gao-rexford", "spp-good-gadget"])
    def test_iterate_sigma_engines_agree(self, name):
        net = NETWORKS[name]()
        start = RoutingState.identity(net.algebra, net.n)
        inc = RoutingSession(net, "incremental").sigma(start)
        naive = RoutingSession(net, "naive").sigma(start)
        assert inc.converged and naive.converged
        assert inc.rounds == naive.rounds
        assert inc.state.equals(naive.state, net.algebra)

    def test_unknown_engine_rejected(self):
        net = _sp_net()
        with pytest.raises(ValueError):
            RoutingSession(net, "quantum")

    def test_cycle_detection_still_works_incrementally(self):
        net = bad_gadget()
        start = RoutingState.identity(net.algebra, net.n)
        res = RoutingSession(net, "incremental").sigma(
            start, max_rounds=200, detect_cycles=True)
        assert not res.converged
        assert res.rounds < 200        # stopped by the cycle, not the cap

    def test_structural_sharing_of_stable_rows(self):
        """Once an entry's row stops changing, successors share the row
        *object* — the memory half of the σ tentpole."""
        net = _sp_net(seed=3)
        start = RoutingState.identity(net.algebra, net.n)
        state, dirty = sigma_with_dirty(net, start)
        while dirty:
            prev = state
            state, dirty = sigma_propagate(net, state, dirty)
            changed_rows = {i for (i, _j) in dirty}
            for i in range(net.n):
                if i not in changed_rows:
                    assert state.rows[i] is prev.rows[i]

    def test_stable_state_returns_identical_object(self):
        net = _sp_net(seed=3)
        fp = RoutingSession(net, "incremental").sigma().state
        nxt, dirty = sigma_with_dirty(net, fp)
        assert not dirty
        same, dirty2 = sigma_propagate(net, fp, set())
        assert same is fp and not dirty2


def converge_counted(net, eng, start, extensions):
    """σ to its fixed point on ``eng`` through the entry points,
    certifying it; returns ``(fixed point, seed-round calls, [(calls,
    Σ over dirty (k, j) of |out(k)|) per later round])``."""
    outs = net.topology.out_neighbours
    current = start
    nxt, dirty = sigma_with_dirty(net, current, eng)
    seed = extensions.take()
    later = []
    while dirty:
        assert len(later) < 500, "σ did not converge"
        current = nxt
        expected = sum(len(outs[k]) for k, _j in dirty)
        nxt, dirty = sigma_propagate(net, current, dirty, eng)
        later.append((extensions.take(), expected))
    eng.settle(current)
    return current, seed, later


class TestColumnCosts:
    """The engine's cost, pinned as edge-function calls: a cold seed
    extends every arc over every destination, a warm seed only the
    written arcs, and a propagation round only the (arc, destination)
    pairs under a dirty entry."""

    NETS = {"hop-count": lambda: erdos_renyi(
                HopCountAlgebra(16), 12, 0.3,
                uniform_weight_factory(HopCountAlgebra(16), 1, 3), seed=3),
            "bgplite": lambda: _bgp_net(n=8, p=0.35, seed=5)}

    def _certified(self, name, extensions):
        net = self.NETS[name]()
        extensions.install(net)
        eng = IncrementalEngine(net)
        start = RoutingState.identity(net.algebra, net.n)
        fp, seed, later = converge_counted(net, eng, start, extensions)
        edges = len(list(net.present_edges()))
        assert seed == edges * net.n            # cold: E·n
        assert later and all(calls == want for calls, want in later)
        return net, eng, fp

    def _rewrite(self, net, i, k):
        alg = net.algebra
        if isinstance(alg, BGPLiteAlgebra):
            return alg.edge(i, k)
        return alg.edge(1)

    @pytest.mark.parametrize("name", sorted(NETS))
    def test_a_set_edge_costs_n_in_the_seed_round(self, name, extensions):
        net, eng, fp = self._certified(name, extensions)
        i, k = sorted(net.present_edges())[len(fp.rows)]
        net.set_edge(i, k, extensions.wrap(self._rewrite(net, i, k)))
        fp2, seed, later = converge_counted(net, eng, fp, extensions)
        assert seed == net.n
        assert all(calls == want for calls, want in later)
        ref = RoutingSession(net, "naive").sigma(fp)
        assert ref.rounds == len(later)
        assert fp2.equals(ref.state, net.algebra)

    @pytest.mark.parametrize("name", sorted(NETS))
    def test_a_remove_edge_costs_nothing_in_the_seed_round(
            self, name, extensions):
        net, eng, fp = self._certified(name, extensions)
        i, k = sorted(net.present_edges())[len(fp.rows)]
        net.remove_edge(i, k)
        fp2, seed, later = converge_counted(net, eng, fp, extensions)
        assert seed == 0
        assert all(calls == want for calls, want in later)
        ref = RoutingSession(net, "naive").sigma(fp)
        assert ref.rounds == len(later)
        assert fp2.equals(ref.state, net.algebra)

    def test_an_uncertified_start_seeds_cold(self, extensions):
        net, eng, fp = self._certified("bgplite", extensions)
        net.remove_edge(*sorted(net.present_edges())[0])
        _fp2, seed, _later = converge_counted(net, eng, fp.copy(),
                                              extensions)
        assert seed == len(list(net.present_edges())) * net.n


class TestTopologyChangeRegression:
    """Mid-run set_edge / remove_edge must invalidate every cache: a
    stale neighbour list or edge-function snapshot would silently give
    wrong fixed points."""

    def _reconverge_both_ways(self, net, state):
        alg = net.algebra
        inc = RoutingSession(net, "incremental").sigma(state)
        naive = RoutingSession(net, "naive").sigma(state)
        assert inc.converged == naive.converged
        assert inc.rounds == naive.rounds
        assert inc.state.equals(naive.state, alg)
        return inc.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_set_edge_then_reconverge(self, seed):
        net = _sp_net(n=10, p=0.3, seed=seed)
        alg = net.algebra
        fp = RoutingSession(net, "incremental").sigma().state
        # install a zero-ish cost shortcut that must reroute traffic
        net.set_edge(0, net.n - 1, alg.edge(1))
        net.set_edge(net.n - 1, 0, alg.edge(1))
        fp2 = self._reconverge_both_ways(net, fp)
        assert not fp2.equals(fp, alg)       # the change was visible

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_remove_edge_then_reconverge(self, seed):
        net = _sp_net(n=10, p=0.3, seed=seed)
        alg = net.algebra
        fp = RoutingSession(net, "incremental").sigma().state
        i, k = next(iter(net.present_edges()))
        net.remove_edge(i, k)
        self._reconverge_both_ways(net, fp)
        assert k not in net.neighbours_in(i)   # cache was invalidated

    def test_delta_after_topology_change(self):
        net = _sp_net(n=8, p=0.35, seed=4)
        alg = net.algebra
        sched = RandomSchedule(net.n, seed=2, max_delay=4)
        start = RoutingState.identity(alg, net.n)
        mid = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=500)
        assert mid.converged
        net.set_edge(0, net.n - 1, alg.edge(1))
        bounded = RoutingSession(net, "incremental").delta(
            sched, mid.state, max_steps=500)
        strict = RoutingSession(net, "incremental").delta(
            sched, mid.state, max_steps=500, strict=True)
        assert bounded.converged and strict.converged
        assert bounded.state.equals(strict.state, alg)


class TestDeltaEquivalence:
    def _schedules(self, n):
        return [
            SynchronousSchedule(n),
            RoundRobinSchedule(n),
            FixedDelaySchedule(n, delay=3),
            AdversarialStaleSchedule(n, max_delay=5, burst=2),
            RandomSchedule(n, seed=8, max_delay=4),
        ]

    def test_delta_step_matches_literal(self):
        net = _sp_net(n=8, p=0.35, seed=4)
        sched = RandomSchedule(net.n, seed=5, max_delay=4)
        history = [RoutingState.identity(net.algebra, net.n)]
        for t in range(1, 15):
            fast = delta_step(net, sched, history, t)
            literal = delta_step_literal(net, sched, history, t)
            assert fast.equals(literal, net.algebra)
            history.append(literal)

    @pytest.mark.parametrize("name", ["shortest-paths", "bgplite",
                                      "gao-rexford", "spp-good-gadget"])
    def test_bounded_run_equals_strict_run(self, name):
        net = NETWORKS[name]()
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        for sched in self._schedules(net.n):
            bounded = RoutingSession(net, "incremental").delta(
                sched, start, max_steps=600)
            strict = RoutingSession(net, "incremental").delta(
                sched, start, max_steps=600, strict=True)
            assert bounded.converged == strict.converged, repr(sched)
            assert bounded.converged_at == strict.converged_at, repr(sched)
            assert bounded.state.equals(strict.state, alg), repr(sched)

    def test_bounded_memory_vs_unbounded(self):
        net = _sp_net(n=10, p=0.3, seed=6)
        sched = RandomSchedule(net.n, seed=1, max_delay=5)
        start = RoutingState.identity(net.algebra, net.n)
        bounded = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=800)
        strict = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=800, strict=True)
        assert bounded.converged
        mrb = sched.max_read_back()
        assert bounded.history_retained <= mrb + 2
        assert strict.history_retained == strict.steps + 1

    def test_inactive_rows_shared_not_copied(self):
        """Satellite regression: δ must reuse inactive nodes' row
        objects instead of copying O(n) routes per row per step."""
        net = _sp_net(n=8, p=0.35, seed=4)
        sched = RoundRobinSchedule(net.n)     # one active node per step
        X = RoutingState.identity(net.algebra, net.n)
        step1 = delta_step(net, sched, [X], 1)
        for i in range(1, net.n):             # node 0 activated at t=1
            assert step1.rows[i] is X.rows[i]

    def test_unknown_read_back_falls_back_to_full_history(self):
        """A schedule that declares no staleness bound must get the
        unbounded history (bounding it would be unsound), not a
        default-sized ring buffer that β can outrun."""

        class HalfTime(SynchronousSchedule):
            """β(t) = t // 2: admissible, but read-back grows forever."""

            def beta(self, t, i, j):
                return t // 2

            def max_read_back(self):
                return None

        net = _sp_net(n=6, p=0.4, seed=2)
        sched = HalfTime(net.n)
        start = RoutingState.identity(net.algebra, net.n)
        res = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=300)   # must not raise
        assert res.converged
        assert res.history_retained == res.steps + 1        # full history

    def test_keep_history_returns_full_list(self):
        net = _sp_net(n=6, p=0.4, seed=2)
        sched = FixedDelaySchedule(net.n, delay=2)
        start = RoutingState.identity(net.algebra, net.n)
        res = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=300, keep_history=True)
        assert res.converged
        assert res.history is not None
        assert len(res.history) == res.steps + 1


class TestBoundedHistory:
    def _state(self, tag):
        return RoutingState([[tag]])

    def test_absolute_time_indexing_and_eviction(self):
        h = BoundedHistory(self._state(0), window=3)
        for t in range(1, 6):
            h.append(self._state(t))
        assert h.end_time == 5
        assert len(h) == 3
        assert h[5].rows[0][0] == 5
        assert h[3].rows[0][0] == 3
        with pytest.raises(LookupError):
            h[2]

    def test_evicted_read_mentions_strict_mode(self):
        h = BoundedHistory(self._state(0), window=2)
        h.append(self._state(1))
        h.append(self._state(2))
        with pytest.raises(LookupError, match="strict=True"):
            h[0]

    def test_window_must_cover_two_states(self):
        with pytest.raises(ValueError):
            BoundedHistory(self._state(0), window=1)

    def test_len_never_exceeds_window(self):
        h = BoundedHistory(self._state(0), window=4)
        for t in range(1, 50):
            h.append(self._state(t))
            assert len(h) <= 4
        assert h.end_time == 49


class TestScheduleReadBack:
    def test_declared_bounds(self):
        assert SynchronousSchedule(4).max_read_back() == 1
        assert RoundRobinSchedule(4).max_read_back() == 1
        assert FixedDelaySchedule(4, delay=3).max_read_back() == 3
        assert RandomSchedule(4, max_delay=6).max_read_back() == 6
        assert AdversarialStaleSchedule(4, max_delay=7).max_read_back() == 7

    def test_beta_respects_declared_bound(self):
        for sched in [FixedDelaySchedule(5, delay=3),
                      RandomSchedule(5, seed=4, max_delay=6),
                      AdversarialStaleSchedule(5, max_delay=7)]:
            bound = sched.max_read_back()
            for t in range(1, 60):
                for i in range(5):
                    for j in range(5):
                        assert t - sched.beta(t, i, j) <= bound
