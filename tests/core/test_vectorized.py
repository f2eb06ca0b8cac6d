"""Unit and property tests for the vectorized finite-algebra engine.

Covers the FiniteEncoding protocol (preference-ordered codes, edge
tables, fast-path hooks), the engine's cache-invalidation contract
under mid-run topology mutation (mirror of ``test_topology_cache.py``),
the non-finite guard/fallback behaviour, and Hypothesis properties:
random :class:`~repro.algebras.finite.FiniteLevelAlgebra` lookup-table
networks under random schedules must reproduce the ``strict=True``
history semantics exactly, including ``max_read_back`` ring-buffer
bounding and δ folded a level at a time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebras import (
    BoundedStratifiedAlgebra,
    FiniteLevelAlgebra,
    GaoRexfordAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
    good_gadget,
)
from repro.algebras.stratified import STRAT_INVALID
from repro.core import (
    FixedDelaySchedule,
    Network,
    RandomSchedule,
    RoutingState,
    Schedule,
    SynchronousSchedule,
    UnsupportedAlgebraError,
    VectorizedEngine,
    iterate_sigma_vectorized,
    supports_vectorized,
)
from repro.protocols.simulator import Simulator
from repro.session import EngineSpec, RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory
from tests.core.test_compiled_schedule import (
    _KINDS,
    _SUBCLASS_KINDS,
    RowsOnlySchedule,
    _random_schedule,
    _subclassed,
)


def _hop_net(n=10, p=0.3, seed=0, bound=16):
    alg = HopCountAlgebra(bound)
    return erdos_renyi(alg, n, p, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


# ----------------------------------------------------------------------
# FiniteEncoding protocol
# ----------------------------------------------------------------------


class TestFiniteEncoding:
    def test_hop_count_identity_encoding(self):
        alg = HopCountAlgebra(8)
        enc = alg.finite_encoding()
        assert enc.size == 9 and enc.identity
        assert enc.encode(alg.trivial) == enc.trivial_code == 0
        assert enc.encode(alg.invalid) == enc.invalid_code == 8
        for r in alg.routes():
            assert enc.decode(enc.encode(r)) == r

    def test_encoding_is_cached(self):
        alg = FiniteLevelAlgebra(5)
        assert alg.finite_encoding() is alg.finite_encoding()

    def test_stratified_encoding_orders_by_preference(self):
        alg = BoundedStratifiedAlgebra(max_level=2, max_distance=3)
        enc = alg.finite_encoding()
        assert enc.size == 3 * 4 + 1
        assert enc.decode(0) == alg.trivial
        assert enc.decode(enc.invalid_code) == STRAT_INVALID
        # min on codes == ⊕ on routes, for every pair
        universe = list(alg.routes())
        for a in universe:
            for b in universe:
                best = alg.choice(a, b)
                assert enc.encode(best) == min(enc.encode(a), enc.encode(b))

    def test_edge_table_matches_pointwise_application(self):
        alg = BoundedStratifiedAlgebra(max_level=2, max_distance=4)
        rng = random.Random(3)
        enc = alg.finite_encoding()
        for _ in range(10):
            fn = alg.sample_edge_function(rng)
            table = enc.edge_table(fn)
            assert len(table) == enc.size
            for code, route in enumerate(enc.codes):
                assert table[code] == enc.encode(fn(route))

    def test_table_edge_fast_path_is_its_own_table(self):
        alg = FiniteLevelAlgebra(6)
        fn = alg.random_strict_edge(random.Random(1))
        assert alg.finite_encoding().edge_table(fn) == fn.table

    def test_hop_edge_fast_path(self):
        alg = HopCountAlgebra(10)
        fn = alg.edge(3)
        table = alg.finite_encoding().edge_table(fn)
        assert table == [min(c + 3, 10) for c in range(11)]

    def test_non_finite_algebra_raises(self):
        with pytest.raises(UnsupportedAlgebraError, match="not finite"):
            ShortestPathsAlgebra().finite_encoding()

    def test_route_outside_carrier_raises(self):
        enc = HopCountAlgebra(4).finite_encoding()
        with pytest.raises(UnsupportedAlgebraError, match="outside"):
            enc.encode(99)

    def test_incomparable_keys_surface_as_capability_gap(self):
        """A finite algebra whose keys cannot be totally ordered must be
        reported unsupported (selector falls back), not crash with a
        raw TypeError from sort()."""

        class Mixed(HopCountAlgebra):
            def routes(self):
                return iter([0, "one", self.bound])

        alg = Mixed(4)
        with pytest.raises(UnsupportedAlgebraError, match="comparable"):
            alg.finite_encoding()
        assert not supports_vectorized(alg)


class TestStateCodecs:
    def test_round_trip(self):
        net = _hop_net(6, seed=1)
        eng = VectorizedEngine(net)
        rng = random.Random(5)
        state = RoutingState.from_function(
            lambda i, j: net.algebra.sample_route(rng), net.n)
        back = eng.decode_state(eng.encode_state(state))
        assert back.equals(state, net.algebra)

    def test_out_of_carrier_state_rejected(self):
        net = _hop_net(4, seed=1)
        eng = VectorizedEngine(net)
        bad = RoutingState.filled(999, net.n)
        with pytest.raises(UnsupportedAlgebraError):
            eng.encode_state(bad)

    def test_float_routes_rejected_not_truncated(self):
        """The identity fast path must not cast 2.5 → 2 (or -0.5 → 0):
        a silently truncated start state would diverge from the
        reference engines with no error."""
        net = _hop_net(4, seed=1)
        eng = VectorizedEngine(net)
        for value in (2.5, -0.5):
            with pytest.raises(UnsupportedAlgebraError):
                eng.encode_state(RoutingState.filled(value, net.n))

    def test_wide_int_routes_rejected_not_wrapped(self):
        """Bounds are checked before the int32 cast: 2**32 must raise,
        not wrap modulo 2³² into the trivial route."""
        net = _hop_net(4, seed=1)
        eng = VectorizedEngine(net)
        with pytest.raises(UnsupportedAlgebraError):
            eng.encode_state(RoutingState.filled(2 ** 32, net.n))


# ----------------------------------------------------------------------
# Non-finite guard / fallback (satellite)
# ----------------------------------------------------------------------


class TestNonFiniteGuard:
    def test_spp_engine_construction_raises(self):
        with pytest.raises(UnsupportedAlgebraError):
            VectorizedEngine(good_gadget())

    def test_gao_rexford_engine_construction_raises(self):
        alg = GaoRexfordAlgebra(n_nodes=4)
        with pytest.raises(UnsupportedAlgebraError):
            VectorizedEngine(Network(alg, 4))

    def test_supports_vectorized_flags(self):
        assert supports_vectorized(HopCountAlgebra(16))
        assert supports_vectorized(FiniteLevelAlgebra(4))
        assert supports_vectorized(BoundedStratifiedAlgebra(2, 5))
        assert not supports_vectorized(ShortestPathsAlgebra())
        assert not supports_vectorized(good_gadget().algebra)
        assert not supports_vectorized(GaoRexfordAlgebra(n_nodes=4))

    def test_sigma_selector_falls_back_silently(self):
        alg = ShortestPathsAlgebra()
        net = erdos_renyi(alg, 8, 0.3, uniform_weight_factory(alg, 1, 5),
                          seed=2)
        start = RoutingState.identity(alg, net.n)
        vec = RoutingSession(net, "vectorized").sigma(start)
        inc = RoutingSession(net, "incremental").sigma(start)
        assert vec.converged and vec.rounds == inc.rounds
        assert vec.state.equals(inc.state, alg)

    def test_delta_selector_falls_back_silently(self):
        net = good_gadget()
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=1, max_delay=3)
        vec = RoutingSession(net, "vectorized").delta(
            sched, start, max_steps=400)
        inc = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=400)
        assert vec.converged == inc.converged
        assert vec.converged_at == inc.converged_at
        assert vec.state.equals(inc.state, net.algebra)

    def test_unknown_engine_rejected_everywhere(self):
        # every entry point negotiates through EngineSpec, which refuses
        with pytest.raises(ValueError):
            EngineSpec("quantum")
        with pytest.raises(ValueError):
            RoutingSession(_hop_net(4), "quantum")


# ----------------------------------------------------------------------
# Cache invalidation under mid-run topology mutation (satellite)
# ----------------------------------------------------------------------


class TestVectorizedCacheInvalidation:
    """Mirror of ``test_topology_cache.py`` for the engine's edge-table
    snapshot: a stale table after set_edge / remove_edge would silently
    compute fixed points for the old topology."""

    def test_set_edge_mid_run_invalidates_tables(self):
        net = _hop_net(10, seed=3)
        alg = net.algebra
        eng = VectorizedEngine(net)
        fp = iterate_sigma_vectorized(net, RoutingState.identity(alg, net.n),
                                      engine=eng).state
        net.set_edge(0, net.n - 1, alg.edge(1))
        net.set_edge(net.n - 1, 0, alg.edge(1))
        fp2 = iterate_sigma_vectorized(net, fp, engine=eng).state
        ref = RoutingSession(net, "naive").sigma(fp).state
        assert fp2.equals(ref, alg)
        assert not fp2.equals(fp, alg)       # the shortcut was visible

    def test_remove_edge_mid_run_invalidates_tables(self):
        net = _hop_net(10, seed=4)
        alg = net.algebra
        eng = VectorizedEngine(net)
        start = RoutingState.identity(alg, net.n)
        fp = iterate_sigma_vectorized(net, start, engine=eng).state
        i, k = next(iter(net.present_edges()))
        net.remove_edge(i, k)
        fp2 = iterate_sigma_vectorized(net, fp, engine=eng).state
        ref = RoutingSession(net, "naive").sigma(fp).state
        assert fp2.equals(ref, alg)

    def test_replacing_edge_function_refreshes_table(self):
        """The id()-reuse trap: a replaced edge function must never be
        served from a previous snapshot's table."""
        alg = HopCountAlgebra(16)
        net = Network(alg, 3)
        net.set_edge(0, 1, alg.edge(1))
        net.set_edge(1, 0, alg.edge(1))
        net.set_edge(1, 2, alg.edge(1))
        net.set_edge(2, 1, alg.edge(1))
        eng = VectorizedEngine(net)
        fp = iterate_sigma_vectorized(
            net, RoutingState.identity(alg, net.n), engine=eng).state
        assert fp.get(0, 2) == 2
        net.set_edge(0, 1, alg.edge(5))
        fp2 = iterate_sigma_vectorized(net, fp, engine=eng).state
        assert fp2.get(0, 2) == 6

    def test_delta_after_topology_change(self):
        net = _hop_net(8, p=0.35, seed=5)
        alg = net.algebra
        session = RoutingSession(net, "vectorized")
        sched = RandomSchedule(net.n, seed=2, max_delay=4)
        start = RoutingState.identity(alg, net.n)
        mid = session.delta(sched, start, max_steps=500)
        assert mid.converged
        net.set_edge(0, net.n - 1, alg.edge(1))
        # the session's managed engine must re-snapshot its tables
        vec = session.delta(sched, mid.state, max_steps=500)
        assert vec.resolution.chosen == "vectorized"
        strict = RoutingSession(net, "incremental").delta(
            sched, mid.state, max_steps=500, strict=True)
        assert vec.converged and strict.converged
        assert vec.state.equals(strict.state, alg)

    def test_simulator_vectorized_stability_follows_changes(self):
        net = _hop_net(8, p=0.4, seed=6)
        sim = Simulator(net, seed=0, stability_engine=VectorizedEngine(net))
        res = sim.run(RoutingState.identity(net.algebra, net.n),
                      max_time=5_000.0)
        assert res.converged
        # the cached engine must notice a post-run topology change
        net.set_edge(0, net.n - 1, net.algebra.edge(1))
        assert not sim._is_sigma_stable(res.final_state)


# ----------------------------------------------------------------------
# δ memory bounding
# ----------------------------------------------------------------------


class TestBoundedHistorySemantics:
    def test_ring_buffer_sized_by_max_read_back(self):
        net = _hop_net(10, seed=7)
        sched = RandomSchedule(net.n, seed=1, max_delay=5)
        start = RoutingState.identity(net.algebra, net.n)
        res = RoutingSession(net, "vectorized").delta(sched, start,
                                                      max_steps=600)
        assert res.converged and res.resolution.chosen == "vectorized"
        assert res.history_retained <= sched.max_read_back() + 2

    def test_unbounded_schedule_keeps_full_history(self):
        class HalfTime(SynchronousSchedule):
            def beta(self, t, i, j):
                return t // 2

            def max_read_back(self):
                return None

        net = _hop_net(6, p=0.4, seed=8)
        start = RoutingState.identity(net.algebra, net.n)
        res = RoutingSession(net, "vectorized").delta(HalfTime(net.n), start,
                                                      max_steps=300)
        # a fixed ring would be unsound: the run falls to the incremental
        # rung, which keeps every state
        assert res.resolution.reason_codes() == [
            ("vectorized", "unbounded-schedule")]
        assert res.converged
        assert res.history_retained == res.steps + 1

    def test_keep_history_returns_decoded_states(self):
        net = _hop_net(6, p=0.4, seed=9)
        sched = FixedDelaySchedule(net.n, delay=2)
        start = RoutingState.identity(net.algebra, net.n)
        vec = RoutingSession(net, "vectorized").delta(
            sched, start, max_steps=300, keep_history=True)
        # decoded histories do not live in the bounded ring: the run
        # falls to the incremental rung
        assert vec.resolution.reason_codes() == [
            ("vectorized", "keep-history")]
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=300, strict=True, keep_history=True)
        assert vec.converged and len(vec.history) == len(ref.history)
        for mine, theirs in zip(vec.history, ref.history):
            assert mine.equals(theirs, net.algebra)


# ----------------------------------------------------------------------
# Hypothesis: random finite tables × random schedules ≡ strict (satellite)
# ----------------------------------------------------------------------


@st.composite
def finite_table_networks(draw):
    """A FiniteLevelAlgebra network with *arbitrary* lookup tables.

    Tables only fix g(m) = m, so the draw space includes strictly
    increasing tables, plateaus, filters and outright non-increasing
    policies — the vectorized δ must mirror strict semantics on all of
    them, converging or not.
    """
    levels = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=3, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True,
                         min_size=n, max_size=len(pairs)))
    alg = FiniteLevelAlgebra(levels)
    net = Network(alg, n, name="hypothesis-finite")
    for (i, j) in arcs:
        table = draw(st.lists(st.integers(0, levels), min_size=levels,
                              max_size=levels))
        net.set_edge(i, j, alg.table_edge(table + [levels]))
    return net


@st.composite
def schedules_for(draw, n):
    kind = draw(st.sampled_from(["random", "sync", "fixed"]))
    if kind == "sync":
        return SynchronousSchedule(n)
    if kind == "fixed":
        return FixedDelaySchedule(n, delay=draw(st.integers(1, 4)))
    return RandomSchedule(n, seed=draw(st.integers(0, 2 ** 16)),
                          activation_prob=draw(st.sampled_from([0.3, 0.6, 1.0])),
                          max_delay=draw(st.integers(1, 4)))


class TestHypothesisDeltaEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_delta_matches_strict_history(self, data):
        """The compiled step, checked step by step: the vectorized
        rung's state after ``max_steps=k`` is the strict ``δ^k``."""
        net = data.draw(finite_table_networks())
        sched = data.draw(schedules_for(net.n))
        start = RoutingState.identity(net.algebra, net.n)
        strict = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=60, strict=True, keep_history=True)
        with RoutingSession(net, "vectorized") as session:
            for k in range(1, strict.steps + 1):
                vec = session.delta(sched, start, max_steps=k)
                assert vec.resolution.chosen == "vectorized"
                assert vec.steps == k
                assert vec.state.equals(strict.history[k], net.algebra), \
                    f"δ^{k} differs"
        assert vec.converged == strict.converged
        assert vec.converged_at == strict.converged_at

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bounded_ring_buffer_matches_strict_fixed_point(self, data):
        net = data.draw(finite_table_networks())
        sched = data.draw(schedules_for(net.n))
        start = RoutingState.identity(net.algebra, net.n)
        strict = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=60, strict=True)
        vec = RoutingSession(net, "vectorized").delta(sched, start,
                                                      max_steps=60)
        assert vec.converged == strict.converged
        assert vec.steps == strict.steps
        assert vec.state.equals(strict.state, net.algebra)
        mrb = sched.max_read_back()
        assert mrb is not None
        assert vec.history_retained <= mrb + 2

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_vectorized_sigma_matches_naive_trajectory(self, data):
        from repro.core import sigma

        net = data.draw(finite_table_networks())
        eng = VectorizedEngine(net)
        state = RoutingState.identity(net.algebra, net.n)
        for _ in range(8):
            nxt = sigma(net, state)
            assert eng.sigma(state).equals(nxt, net.algebra)
            state = nxt


class TestFoldTiling:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_tiled_fold_equals_the_single_tile_fold(self, data):
        """Under a tiny tile budget :func:`delta_fold` cuts a step
        between activations and gives an activation larger than a tile
        a tile of its own; the result equals the one-tile fold, on 2-D
        and 3-D rings, with table and affine extensions."""
        from unittest import mock

        import numpy as np

        from repro.core import vectorized

        rnd = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        size = data.draw(st.integers(2, 12))          # carrier codes
        width = data.draw(st.integers(1, 6))
        rows = data.draw(st.integers(1, 7))
        degs = np.asarray(data.draw(st.lists(st.integers(1, 9), min_size=1,
                                             max_size=10)))
        edges = int(degs.sum())
        n_edges = data.draw(st.integers(1, 12))       # snapshot edges
        dtype = data.draw(st.sampled_from([np.int16, np.int32]))
        starts = np.cumsum(degs) - degs
        edge_flat = rnd.integers(0, n_edges, edges)
        if data.draw(st.booleans(), label="3-D ring"):
            slots = data.draw(st.integers(1, 4))
            ring = rnd.integers(0, size, (slots, rows, width)).astype(dtype)
            reads = (rnd.integers(0, slots, edges),
                     rnd.integers(0, rows, edges))
        else:
            ring = rnd.integers(0, size, (rows, width)).astype(dtype)
            reads = (rnd.integers(0, rows, edges),)
        tables = rnd.integers(0, size, (n_edges, size)).astype(np.int32)
        affine = None
        if data.draw(st.booleans(), label="affine"):
            w = rnd.integers(0, size, (n_edges, 1)).astype(dtype)
            affine = (w, w + rnd.integers(0, size, (n_edges, 1)).astype(dtype))
        # from under one edge's row (every activation is larger than a
        # tile) to the whole step (a single tile)
        tile = data.draw(st.integers(1, edges * width), label="tile")

        def fold(budget):
            with mock.patch.object(vectorized, "FOLD_TILE", budget):
                return vectorized.delta_fold(
                    ring, np.ravel_multi_index(reads, ring.shape[:-1]),
                    edge_flat, starts, tables, affine)

        whole = fold(edges * width)
        tiled = fold(tile)
        assert tiled.dtype == whole.dtype
        np.testing.assert_array_equal(tiled, whole)


# ----------------------------------------------------------------------
# The arc-log patch: a patched snapshot is the rebuild, at O(Δ) cost
# ----------------------------------------------------------------------


def assert_same_snapshot(mine, ref):
    """Field for field, dtypes included: what the patch must reproduce."""
    import numpy as np

    for name in ("src", "tables", "deg", "off", "importers", "starts"):
        a, b = getattr(mine, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    if ref.affine is None:
        assert mine.affine is None
    else:
        assert mine.affine is not None
        for a, b in zip(mine.affine, ref.affine):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestArcLogPatch:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_patched_snapshot_equals_the_rebuild(self, data):
        """Random bursts of set/remove writes — re-sets of present arcs,
        removals of absent ones (no version bump), self-loops, clipped
        shift and arbitrary tables, and writes that remove the only
        non-affine arc or add the first one under a computed view —
        with engines joining at different versions and refreshing at
        random points: every refreshed snapshot is a new object equal
        to a from-scratch rebuild, and a burst longer than the log
        falls back to that rebuild."""
        import numpy as np

        levels = data.draw(st.integers(2, 5), label="levels")
        n = data.draw(st.integers(1, 5), label="n")
        alg = FiniteLevelAlgebra(levels)
        arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

        def edge():
            if data.draw(st.booleans(), label="clipped shift"):
                w = data.draw(st.integers(0, levels))
                table = [min(x + w, levels) for x in range(levels)]
            else:
                table = data.draw(st.lists(st.integers(0, levels),
                                           min_size=levels,
                                           max_size=levels))
            return alg.table_edge(table + [levels])

        shift = alg.table_edge([min(x + 1, levels)
                                for x in range(levels + 1)])
        odd = alg.table_edge([1, 0] + [levels] * (levels - 1))  # no shift
        net = Network(alg, n, name="patch-oracle")
        adj = net.adjacency
        for (i, k) in data.draw(st.lists(arc, unique=True), label="arcs"):
            net.set_edge(i, k, edge())
        engines = [VectorizedEngine(net)]
        for _burst in range(3):
            for _ in range(data.draw(st.integers(0, 8), label="writes")):
                i, k = data.draw(arc)
                if data.draw(st.booleans(), label="remove"):
                    net.remove_edge(i, k)
                else:
                    net.set_edge(i, k, edge())
            toggle = data.draw(st.sampled_from(
                [None, "remove the only odd arc", "add the first odd arc"]),
                label="view toggle")
            if toggle is not None:
                # every arc a clipped shift (but one odd arc, when it is
                # to be removed), every snapshot's view computed, then
                # the one write that flips the view
                for (i, k) in list(net.present_edges()):
                    net.set_edge(i, k, shift)
                i, k = data.draw(arc)
                if toggle == "remove the only odd arc":
                    net.set_edge(i, k, odd)
                for eng in engines:
                    eng.refresh()
                    assert (eng._topo.affine is None) == \
                        (toggle == "remove the only odd arc")
                if toggle == "remove the only odd arc":
                    net.remove_edge(i, k)
                else:
                    net.set_edge(i, k, odd)
            if data.draw(st.booleans(), label="outrun the log"):
                fn = edge()
                for _ in range(n * n + 1):      # more bumps than arcs
                    net.set_edge(0, 0, fn)
                for eng in engines:
                    assert adj.arcs_since(eng._version) is None
            ref = VectorizedEngine(net)._topo
            for eng in engines:
                if not data.draw(st.booleans(), label="refresh now"):
                    continue
                old, moved = eng._topo, eng._version != adj.version
                kept = {f: getattr(old, f).copy()
                        for f in ("src", "tables", "deg")}
                eng.refresh()
                assert_same_snapshot(eng._topo, ref)
                assert (eng._topo is not old) == moved
                for f, before in kept.items():      # the old one untouched
                    np.testing.assert_array_equal(getattr(old, f), before)
            engines.append(VectorizedEngine(net))
        ref = VectorizedEngine(net)._topo
        for eng in engines:
            eng.refresh()
            assert eng._version == adj.version
            assert_same_snapshot(eng._topo, ref)

    def test_a_write_costs_its_own_arc(self, monkeypatch):
        """O(Δ) as an exact count: after a one-arc ``set_edge`` the
        refresh builds one edge table, after a ``remove_edge`` none, and
        neither the refresh nor the σ run after it builds a
        ``NetworkTopology``."""
        from repro.algebras.base import AlgebraEncoding
        from repro.core import state as state_module

        net = _hop_net(12, p=0.4, seed=1)
        alg = net.algebra
        eng = VectorizedEngine(net)
        start = RoutingState.identity(alg, net.n)
        calls = {"edge_table": 0, "topology": 0}
        edge_table = AlgebraEncoding.edge_table
        topology_init = state_module.NetworkTopology.__init__

        def counted_table(self, fn):
            calls["edge_table"] += 1
            return edge_table(self, fn)

        def counted_topology(self, adjacency):
            calls["topology"] += 1
            topology_init(self, adjacency)

        monkeypatch.setattr(AlgebraEncoding, "edge_table", counted_table)
        monkeypatch.setattr(state_module.NetworkTopology, "__init__",
                            counted_topology)
        i, k = next(iter(net.present_edges()))
        absent = next((a, b) for a in range(net.n) for b in range(net.n)
                      if a != b and not net.adjacency.has_edge(a, b))
        for write, tables in (
                (lambda: net.set_edge(i, k, alg.edge(2)), 1),   # re-set
                (lambda: net.remove_edge(i, k), 0),
                (lambda: net.set_edge(*absent, alg.edge(3)), 1),  # new arc
                (lambda: net.remove_edge(*absent), 0)):
            calls.update(edge_table=0, topology=0)
            write()
            eng.refresh()
            assert calls == {"edge_table": tables, "topology": 0}
            iterate_sigma_vectorized(net, start, engine=eng)
            assert calls == {"edge_table": tables, "topology": 0}

    @pytest.mark.parametrize("spec", [
        pytest.param(EngineSpec("parallel", workers=2),
                     marks=pytest.mark.parallel, id="parallel"),
        pytest.param(EngineSpec("remote", remote_workers=2), id="remote"),
    ])
    def test_worker_rungs_follow_a_burst_of_writes(self, spec):
        """A pool and a loopback TCP session solve each write burst's
        topology from their republished (patched) snapshot, bit-identical
        to naive."""
        net = _hop_net(10, p=0.4, seed=7)
        alg = net.algebra
        rng = random.Random(3)
        start = RoutingState.identity(alg, net.n)
        with RoutingSession(net, spec) as session:
            session.sigma(start)
            for _burst in range(3):
                for _ in range(6):
                    i, k = rng.randrange(net.n), rng.randrange(net.n)
                    if rng.random() < 0.4:
                        net.remove_edge(i, k)
                    else:
                        net.set_edge(i, k, alg.edge(rng.randint(1, 3)))
                got = session.sigma(start)
                ref = RoutingSession(net, "naive").sigma(start)
                assert got.resolution.chosen == spec.engine
                assert (got.converged, got.rounds, got.churn) == \
                    (ref.converged, ref.rounds, ref.churn)
                assert got.state == ref.state


# ----------------------------------------------------------------------
# σ on the δ kernel
# ----------------------------------------------------------------------


class TestSigmaOnTheFold:
    def test_empty_column_set_is_no_change(self):
        """A shard with no dirty column (a pool or TCP worker late in a
        run) gets an empty ``cols``: no change, block as it was."""
        import numpy as np

        from repro.core.vectorized import sigma_block_round

        net = _hop_net(8, p=0.4, seed=2)
        eng = VectorizedEngine(net)
        C = eng.encode_state(RoutingState.identity(net.algebra, net.n))
        before = C.copy()
        changed = sigma_block_round(eng._topo, C[:, 3:6],
                                    np.empty(0, dtype=np.intp), 3,
                                    eng.trivial_code, eng.invalid_code)
        assert changed.size == 0
        np.testing.assert_array_equal(C, before)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_sigma_across_tiles_equals_naive(self, data):
        """σ rounds under a tiny :data:`FOLD_TILE`, so each round spans
        many tiles, on the clipped-shift path (hop count) and the table
        path (bounded stratified): every round and the whole run equal
        naive."""
        from unittest import mock

        import numpy as np

        from repro.cli import build_network
        from repro.core import sigma, vectorized

        algebra = data.draw(st.sampled_from(["hop-count",
                                             "stratified-bounded"]))
        n = data.draw(st.integers(2, 9), label="n")
        net, _factory = build_network(algebra, "random", n,
                                      data.draw(st.integers(0, 99)))
        eng = VectorizedEngine(net)
        if eng._topo.src.size:
            assert (eng._topo.affine is not None) == (algebra == "hop-count")
        rnd = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        state = eng.decode_state(
            rnd.integers(0, eng.encoding.size, (n, n)).astype(np.int32))
        tile = data.draw(st.integers(1, 4 * n), label="tile")
        with mock.patch.object(vectorized, "FOLD_TILE", tile):
            X = state
            for _ in range(4):
                nxt = sigma(net, X)
                assert eng.sigma(X).equals(nxt, net.algebra)
                X = nxt
            got = RoutingSession(net, "vectorized").sigma(state,
                                                          max_rounds=200)
        ref = RoutingSession(net, "naive").sigma(state, max_rounds=200)
        assert (got.converged, got.rounds, got.churn) == \
            (ref.converged, ref.rounds, ref.churn)
        assert got.state == ref.state


# ----------------------------------------------------------------------
# The δ planner: windows of planned steps, stale reads, probe once
# ----------------------------------------------------------------------


class _StaleAt(FixedDelaySchedule):
    """A fixed delay (synchronous by default) but for step ``bad``, whose
    every read goes 9 back — outside the ring its declared read-back of
    ``delay`` sizes."""

    def __init__(self, n, bad, delay=1):
        super().__init__(n, delay=delay)
        self.bad = bad

    def beta(self, t, i, j):
        return max(0, t - 9) if t == self.bad else max(0, t - self.delay)

    def beta_uniform(self, t):
        return self.beta(t, 0, 0)


def _stale_message(time, trial, t, window=3):
    return (f"δ history for time {time} is outside trial {trial}'s ring "
            f"window (window={window}, t={t}); the schedule reads further "
            "back than its declared max_read_back — run "
            "RoutingSession.delta(..., strict=True) to keep the full "
            "history")


class TestDeltaPlanner:
    def test_stale_read_raises_only_when_a_live_trial_reaches_it(self):
        """A read outside the ring inside a planned window raises the
        unchanged LookupError when a live trial reaches its step, naming
        the lowest such trial; a trial that converges first — or a stale
        step past every trial's end — raises nothing."""
        from repro.core import BatchedVectorizedEngine

        net = _hop_net(12, p=0.25, seed=5)
        alg, n = net.algebra, net.n
        start = RoutingState.identity(alg, n)
        eng = BatchedVectorizedEngine(net)
        (ref,) = eng.delta_grid([(SynchronousSchedule(n), start)])
        assert ref.converged and ref.steps >= 6
        late = _StaleAt(n, ref.steps + 1)
        got = eng.delta_grid([(SynchronousSchedule(n), start),
                              (late, start)])
        for res in got:
            assert (res.converged, res.steps, res.converged_at) == \
                (ref.converged, ref.steps, ref.converged_at)
            assert res.state.equals(ref.state, alg)
        bad = ref.steps - 1          # inside the first planned window
        with pytest.raises(LookupError) as exc:
            eng.delta_grid([(late, start), (SynchronousSchedule(n), start),
                            (_StaleAt(n, bad), start),
                            (_StaleAt(n, bad), start)])
        assert str(exc.value) == _stale_message(0, 2, bad)

    def test_a_trial_finishing_mid_window_keeps_its_single_run(
            self, monkeypatch):
        """Trials that finish inside a planned window leave it at their
        finish: their steps, convergence step and state equal their runs
        alone, under the default budget and under one that cuts windows
        to a step."""
        from repro.core import (
            BatchedVectorizedEngine,
            schedule_zoo,
            vectorized,
        )
        from repro.core.asynchronous import random_state

        net = _hop_net(14, p=0.3, seed=9)
        alg, n = net.algebra, net.n
        starts = [RoutingState.identity(alg, n),
                  random_state(alg, n, random.Random(3))]
        trials = [(sched, x) for x in starts for sched in schedule_zoo(n)]
        eng = BatchedVectorizedEngine(net)
        alone = [eng.delta_grid([trial], max_steps=800)[0]
                 for trial in trials]
        windows = []
        stack = vectorized._DeltaPlan.stack

        def recording(plan, live, t, count):
            win = stack(plan, live, t, count)
            windows.append((win.t, win.t + win.steps))
            return win

        monkeypatch.setattr(vectorized._DeltaPlan, "stack", recording)
        for tile in (vectorized.FOLD_TILE, 8):
            monkeypatch.setattr(vectorized, "FOLD_TILE", tile)
            windows.clear()
            grid = eng.delta_grid(trials, max_steps=800)
            for res, ref in zip(grid, alone):
                assert (res.converged, res.steps, res.converged_at,
                        res.history_retained) == \
                    (ref.converged, ref.steps, ref.converged_at,
                     ref.history_retained)
                assert res.state.equals(ref.state, alg)
            if tile > 8:
                # a trial finished strictly inside a window others ran on
                assert any(lo <= r.steps < hi - 1
                           for r in grid for lo, hi in windows)

    def test_sigma_probe_runs_once_per_constant_run(self, monkeypatch):
        """A round-robin and adversarial grid probes each trial's state
        at most once per constant run: a state that failed the probe is
        not probed again until it changes — and every result equals the
        literal recursion's."""
        import numpy as np

        from repro.core import (
            AdversarialStaleSchedule,
            BatchedVectorizedEngine,
            RoundRobinSchedule,
        )
        from repro.core.asynchronous import random_state

        net = _hop_net(10, p=0.3, seed=6)
        alg, n = net.algebra, net.n
        scheds = [RoundRobinSchedule(n),
                  AdversarialStaleSchedule(n, max_delay=6, burst=2)]
        starts = [RoutingState.identity(alg, n),
                  random_state(alg, n, random.Random(8))]
        trials = [(sched, x) for x in starts for sched in scheds]
        runs = np.zeros(len(trials), dtype=np.int64)   # constant-run ids
        probed, current = [], []
        window = VectorizedEngine._delta_window
        state = VectorizedEngine._delta_state
        rows = VectorizedEngine._sigma_rows

        def counting_window(eng, run, t, count, live, *rest):
            for flags in window(eng, run, t, count, live, *rest):
                runs[flags.any(axis=0)] += 1
                yield flags

        def noting_state(eng, run, b, t):
            current[:] = [b]
            return state(eng, run, b, t)

        def counting_rows(eng, C, which):
            probed.append((current[0], int(runs[current[0]])))
            return rows(eng, C, which)

        monkeypatch.setattr(VectorizedEngine, "_delta_window",
                            counting_window)
        monkeypatch.setattr(VectorizedEngine, "_delta_state", noting_state)
        monkeypatch.setattr(VectorizedEngine, "_sigma_rows", counting_rows)
        grid = BatchedVectorizedEngine(net).delta_grid(trials,
                                                       max_steps=2000)
        monkeypatch.undo()
        assert probed and len(set(probed)) == len(probed)
        with RoutingSession(net, "naive") as ref_s:
            for (sched, x), res in zip(trials, grid):
                ref = ref_s.delta(sched, x, max_steps=2000, strict=True)
                assert (res.converged, res.steps, res.converged_at) == \
                    (ref.converged, ref.steps, ref.converged_at)
                assert res.state.equals(ref.state, alg)

    def test_a_subclass_runs_its_own_alpha_and_beta(self):
        """A subclass that overrides only ``alpha`` (round robin
        backwards) or only ``beta`` (synchronous, reading half-way back)
        runs its own schedule on the codes rungs, not its parent's
        closed forms: every trial of the grid equals the literal
        recursion step for step."""
        from repro.core import RoundRobinSchedule
        from repro.core.asynchronous import random_state

        class Backwards(RoundRobinSchedule):
            def alpha(self, t):
                return frozenset({-t % self.n})

        class HalfTime(SynchronousSchedule):
            def beta(self, t, i, j):
                return t // 2

            def max_read_back(self):
                return None

        for seed in (6, 8):
            net = _hop_net(8, p=0.4, seed=seed)
            alg, n = net.algebra, net.n
            starts = [RoutingState.identity(alg, n),
                      random_state(alg, n, random.Random(3))]
            trials = [(sched, x) for x in starts
                      for sched in (Backwards(n), HalfTime(n))]
            with RoutingSession(net, "vectorized") as s:
                grid = s.delta_grid(trials, max_steps=300, keep_results=True)
            assert grid.resolution.chosen == "vectorized"
            with RoutingSession(net, "naive") as ref_s:
                for (sched, x), res in zip(trials, grid.results):
                    ref = ref_s.delta(sched, x, max_steps=300, strict=True)
                    assert (res.converged, res.steps, res.converged_at) == \
                        (ref.converged, ref.steps, ref.converged_at)
                    assert res.state.equals(ref.state, alg)


# ----------------------------------------------------------------------
# δ by levels: consecutive steps whose reads are all settled fold as one
# ----------------------------------------------------------------------


def _assert_literal(net, trials, results, max_steps, stability_window=None):
    """Each result is the strict literal recursion's: converged, steps,
    convergence step and state, and the ring's retained history (the
    declared read-back + 2 steps, where strict keeps every step)."""
    alg = net.algebra
    with RoutingSession(net, "naive") as ref_s:
        for (sched, x), res in zip(trials, results):
            ref = ref_s.delta(sched, x, max_steps=max_steps, strict=True,
                              stability_window=stability_window)
            assert (res.converged, res.steps, res.converged_at) == \
                (ref.converged, ref.steps, ref.converged_at)
            assert res.history_retained == \
                min(ref.steps + 1, sched.max_read_back() + 2)
            assert res.state.equals(ref.state, alg)


def _record_levels(patch):
    """Record every level's ``(t0, t1, ring slots)`` while ``patch``
    (``monkeypatch.setattr`` or an exit stack's ``mock.patch.object``)
    holds the recorder in place."""
    levels = []
    level = VectorizedEngine._delta_level

    def recording(eng, views, win, k0, k1, *rest):
        levels.append((win.t + k0, win.t + k1, views[0].shape[0]))
        return level(eng, views, win, k0, k1, *rest)

    patch(VectorizedEngine, "_delta_level", recording)
    return levels


class _Stutter(Schedule):
    """``width`` adjacent nodes active for ``burst`` steps in a row, each
    edge read a hashed 1 … ``max_delay`` steps back: a node runs several
    times within one level, and its earliest read may move back from one
    activation to the next."""

    def __init__(self, n, seed, burst=3, width=2, max_delay=5):
        super().__init__(n)
        self.seed, self.burst, self.width = seed, burst, width
        self.max_delay = max_delay

    def alpha(self, t):
        first = (t // self.burst) * self.width
        return frozenset((first + w) % self.n for w in range(self.width))

    def beta(self, t, i, j):
        return max(0, t - 1 - (t * 7 + i * 3 + j * 5 + self.seed)
                   % self.max_delay)


def _stutter_case(seed):
    """A :class:`_Stutter` trial drawn from ``seed``: on a network of
    arbitrary tables or a hop-count one, from a random or the identity
    start, with its ``max_steps``."""
    from repro.core.asynchronous import random_state

    rng = random.Random(seed)
    n = rng.randint(3, 7)
    if rng.random() < 0.6:
        levels = rng.randint(2, 5)
        alg = FiniteLevelAlgebra(levels)
        net = Network(alg, n, name="stutter")
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.5:
                    net.set_edge(i, j, alg.table_edge(
                        [rng.randint(0, levels) for _ in range(levels)]
                        + [levels]))
    else:
        net = _hop_net(n, p=0.5, seed=seed)
    alg = net.algebra
    sched = _Stutter(n, rng.randint(0, 99), burst=rng.randint(2, 4),
                     width=rng.randint(1, 2), max_delay=rng.randint(2, 6))
    start = (random_state(alg, n, random.Random(seed)) if rng.random() < 0.7
             else RoutingState.identity(alg, n))
    return net, [(sched, start)], rng.randint(5, 60)


class TestDeltaLevels:
    """δ folds one level at a time — the longest run of steps whose
    every read is settled and before which no trial can be probed — and
    every result equals the literal recursion's."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_mixed_stacks_equal_the_literal_recursion(self, data):
        """Stacks mixing schedules that fold several steps per level
        (fixed delays of 2 or more, adversarial, round robin, stutter)
        with ones
        that never do (synchronous, random), from identity and random
        starts, under the default and a tiny fold tile, to a
        ``max_steps`` that may end inside a level."""
        from contextlib import ExitStack
        from unittest import mock

        from repro.core import (
            AdversarialStaleSchedule,
            BatchedVectorizedEngine,
            RoundRobinSchedule,
            vectorized,
        )
        from repro.core.asynchronous import random_state

        if data.draw(st.booleans(), label="hop-count"):
            net = _hop_net(data.draw(st.integers(3, 10), label="n"), p=0.35,
                           seed=data.draw(st.integers(0, 99), label="net"))
        else:
            net = data.draw(finite_table_networks())
        alg, n = net.algebra, net.n

        def schedule(kind):
            if kind == "fixed":
                return FixedDelaySchedule(n, delay=data.draw(st.integers(2, 5)))
            if kind == "adversarial":
                return AdversarialStaleSchedule(
                    n, max_delay=data.draw(st.integers(1, 7)),
                    burst=data.draw(st.integers(1, 3)))
            if kind == "round-robin":
                return RoundRobinSchedule(n)
            if kind == "stutter":
                return _Stutter(n, data.draw(st.integers(0, 99)),
                                burst=data.draw(st.integers(2, 4)),
                                width=data.draw(st.integers(1, 2)),
                                max_delay=data.draw(st.integers(2, 6)))
            if kind == "sync":
                return SynchronousSchedule(n)
            return RandomSchedule(
                n, seed=data.draw(st.integers(0, 2 ** 16)),
                activation_prob=data.draw(st.sampled_from([0.3, 0.7])),
                max_delay=data.draw(st.integers(1, 4)))

        folding = ["fixed", "adversarial", "round-robin", "stutter"]
        kinds = data.draw(st.lists(st.sampled_from(folding + [
            "sync", "random"]), max_size=3), label="kinds")
        kinds.append(data.draw(st.sampled_from(folding)))
        trials = []
        for kind in kinds:
            sched = schedule(kind)
            for start in data.draw(st.lists(st.sampled_from(
                    ["identity", "random"]), min_size=1, max_size=2)):
                trials.append((sched, RoutingState.identity(alg, n)
                               if start == "identity" else random_state(
                                   alg, n, random.Random(len(trials)))))
        max_steps = data.draw(st.integers(1, 60), label="max_steps")
        tile = data.draw(st.sampled_from([vectorized.FOLD_TILE, 8]))
        with ExitStack() as stack:
            stack.enter_context(mock.patch.object(vectorized, "FOLD_TILE",
                                                  tile))
            levels = _record_levels(
                lambda *a: stack.enter_context(mock.patch.object(*a)))
            results = BatchedVectorizedEngine(net).delta_grid(
                trials, max_steps=max_steps)
        assert sum(t1 - t0 for t0, t1, _ in levels) <= max_steps
        _assert_literal(net, trials, results, max_steps)

    def test_a_lone_stale_schedule_folds_before_it_writes(self,
                                                          monkeypatch):
        """``AdversarialStaleSchedule(max_delay=6, burst=2)`` alone folds
        levels of 6 steps and more on a 9-slot ring: a level's writes
        reach the slots its reads take, so they come after its fold."""
        from repro.core import AdversarialStaleSchedule, BatchedVectorizedEngine
        from repro.core.asynchronous import random_state

        net = _hop_net(10, p=0.3, seed=6)
        alg, n = net.algebra, net.n
        sched = AdversarialStaleSchedule(n, max_delay=6, burst=2)
        levels = _record_levels(monkeypatch.setattr)
        for start in (RoutingState.identity(alg, n),
                      random_state(alg, n, random.Random(8))):
            levels.clear()
            got = BatchedVectorizedEngine(net).delta_grid([(sched, start)])
            assert {slots for *_, slots in levels} == {9}
            assert max(t1 - t0 for t0, t1, _ in levels) >= 6
            monkeypatch.undo()
            _assert_literal(net, [(sched, start)], got, 2000)
            levels = _record_levels(monkeypatch.setattr)

    def _grid(self, monkeypatch):
        """Round robin and adversarial from identity and a random start
        (net seed 6): its levels, each probe's ``(trial, step, passed)``
        and its results."""
        from repro.core import (
            AdversarialStaleSchedule,
            BatchedVectorizedEngine,
            RoundRobinSchedule,
        )
        from repro.core.asynchronous import random_state

        net = _hop_net(10, p=0.3, seed=6)
        alg, n = net.algebra, net.n
        trials = [(sched, x)
                  for x in (RoutingState.identity(alg, n),
                            random_state(alg, n, random.Random(8)))
                  for sched in (AdversarialStaleSchedule(n, max_delay=6,
                                                         burst=2),
                                RoundRobinSchedule(n))]
        levels = _record_levels(monkeypatch.setattr)
        probes, at = [], []
        state, rows = VectorizedEngine._delta_state, \
            VectorizedEngine._sigma_rows

        def noting_state(eng, run, b, t):
            at[:] = [b, t]
            return state(eng, run, b, t)

        def noting_rows(eng, C, which):
            out = rows(eng, C, which)
            probes.append((*at, bool((out == C[which]).all())))
            return out

        monkeypatch.setattr(VectorizedEngine, "_delta_state", noting_state)
        monkeypatch.setattr(VectorizedEngine, "_sigma_rows", noting_rows)
        results = BatchedVectorizedEngine(net).delta_grid(trials)
        monkeypatch.undo()
        _assert_literal(net, trials, results, 2000)
        return levels, probes, results

    def test_a_trial_finishing_at_a_level_end_leaves_the_rest_running(
            self, monkeypatch):
        """A trial converges on the last step of a level of several
        steps while the others run on from the next step."""
        levels, _probes, results = self._grid(monkeypatch)
        ends = {t1 - 1 for t0, t1, _ in levels if t1 - t0 > 1}
        last = max(r.steps for r in results)
        assert any(r.converged and r.steps in ends and r.steps < last
                   for r in results)

    def test_a_probe_fails_at_a_level_end(self, monkeypatch):
        """A state constant for its stability window but not σ-stable
        fails its probe after the last step of a level of several steps,
        and is not probed again until it changes."""
        levels, probes, _results = self._grid(monkeypatch)
        ends = {t1 - 1 for t0, t1, _ in levels if t1 - t0 > 1}
        assert any(not passed and t in ends for _b, t, passed in probes)
        failed = [(b, t) for b, t, passed in probes if not passed]
        assert len(set(failed)) == len(failed)

    def test_a_pair_run_earlier_in_the_level_is_its_own_prior(self):
        """The skip of a node's second activation in a level compares
        against its first one's earliest read, not the one before the
        level: here the first reads further back than the one before it,
        and the second must not be skipped."""
        from repro.core import BatchedVectorizedEngine

        net, trials, max_steps = _stutter_case(354)
        got = BatchedVectorizedEngine(net).delta_grid(trials,
                                                      max_steps=max_steps)
        _assert_literal(net, trials, got, max_steps)

    def test_a_level_drops_certificates_from_before_a_change(self):
        """A certificate recorded before the trial's last change in a
        level is dropped even where its row's sources stood still: here
        the row changed again after it, reading further back, and the
        probe must check it."""
        from repro.core import BatchedVectorizedEngine

        net, trials, max_steps = _stutter_case(514)
        got = BatchedVectorizedEngine(net).delta_grid(trials,
                                                      max_steps=max_steps)
        _assert_literal(net, trials, got, max_steps)

    @pytest.mark.parametrize("window", [0, 1])
    def test_a_short_stability_window_cuts_levels_to_one_step_at_least(
            self, window):
        """With a stability window of 0 or 1 a trial may be probed after
        the first step, so the probe cut would end a level before it
        starts: a level keeps one step, and the start is never probed.
        Fixed delay 2 and round robin, from the identity, a random start
        and the fixed point, stacked and alone."""
        from repro.core import BatchedVectorizedEngine, RoundRobinSchedule
        from repro.core.asynchronous import random_state

        net = _hop_net(10, p=0.3, seed=6)
        alg, n = net.algebra, net.n
        identity = RoutingState.identity(alg, n)
        with RoutingSession(net, "naive") as s:
            fixed = s.sigma(identity).state
        trials = [(sched, x)
                  for sched in (FixedDelaySchedule(n, delay=2),
                                RoundRobinSchedule(n))
                  for x in (identity, fixed,
                            random_state(alg, n, random.Random(8)))]
        eng = BatchedVectorizedEngine(net)
        stacked = eng.delta_grid(trials, stability_window=window)
        _assert_literal(net, trials, stacked, 2000, stability_window=window)
        for trial in trials:
            alone = eng.delta_grid([trial], stability_window=window)
            _assert_literal(net, [trial], alone, 2000,
                            stability_window=window)

    def test_a_stale_step_a_level_would_fold_raises_at_that_step(
            self, monkeypatch):
        """A read outside the ring at the second step of what would be
        a two-step level (a delay of 2) raises the unchanged LookupError
        when the trial reaches that step: the level stops before it."""
        from repro.core import BatchedVectorizedEngine
        from repro.core.asynchronous import random_state

        net = _hop_net(12, p=0.25, seed=5)
        alg, n = net.algebra, net.n
        start = random_state(alg, n, random.Random(2))
        levels = _record_levels(monkeypatch.setattr)
        (ref,) = BatchedVectorizedEngine(net).delta_grid(
            [(FixedDelaySchedule(n, delay=2), start)])
        assert ref.steps > 6 and (5, 7, 5) in levels
        levels.clear()
        with pytest.raises(LookupError) as exc:
            BatchedVectorizedEngine(net).delta_grid(
                [(_StaleAt(n, 6, delay=2), start)])
        assert str(exc.value) == _stale_message(0, 0, 6, window=4)
        assert levels[-1][:2] == (5, 6)


class TestLevelCounts:
    """What levels buy, pinned as counts."""

    @pytest.mark.parametrize("kind", _KINDS + ["rows-only"])
    @pytest.mark.parametrize("subclass", [None] + _SUBCLASS_KINDS)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_planned_dependency_is_the_brute_force_one(self, kind,
                                                       subclass, data):
        """A plan's ``dep`` — per step, the latest step of the plan that
        activated a node the step reads, at or before that read — is the
        scan over every (step, activation, read), for every schedule
        class and for subclasses overriding only α or only β."""
        import numpy as np

        from repro.core import CompiledSchedule
        from repro.core.vectorized import _StepPlan

        if kind == "rows-only":
            src = RowsOnlySchedule(data.draw(st.integers(1, 9), label="n"),
                                   data.draw(st.integers(0, 50),
                                             label="seed"))
        else:
            src = _random_schedule(data.draw, kind)
        if subclass is not None:
            src = _subclassed(src, subclass)
        n = src.n
        net = _hop_net(n, p=0.5, seed=data.draw(st.integers(0, 99)))
        horizon = data.draw(st.integers(1, 40), label="horizon")
        t = data.draw(st.integers(1, horizon + 10), label="t")
        count = data.draw(st.integers(1, 30), label="count")
        plan = _StepPlan(VectorizedEngine(net)._topo,
                         CompiledSchedule(src, horizon), t + count, t, count,
                         ring=(t + count + 1, n, np.int32))
        assert plan.steps == count
        sources = {i: [k for (i2, k) in net.adjacency.present_edges()
                       if i2 == i] for i in range(n)}
        for step in range(plan.steps):
            u = t + step
            want = t - 1
            for i in src.alpha(u):
                for k in sources[i]:
                    s = src.beta(u, i, k)
                    want = max([want] + [v for v in range(t, s + 1)
                                         if k in src.alpha(v)])
            assert plan.dep[step] == want, (u, kind, subclass)

    def test_grid_absolute_folds_once_per_level(self, monkeypatch):
        """On the grid-absolute benchmark's shape (stratified-bounded
        G(32, 0.4), net seed 1, the zoo of seeds ``(s, s + 17)`` from
        identity and a random start) a window calls ``delta_fold`` at
        most once per level, and there are at most half as many levels
        as steps."""
        from repro.cli import build_network
        from repro.core import BatchedVectorizedEngine, schedule_zoo, vectorized
        from repro.core.asynchronous import random_state

        net, _factory = build_network("stratified-bounded", "random", 32, 1)
        alg, n = net.algebra, net.n
        counts = {"folds": 0, "levels": 0, "steps": 0}
        inside = []
        fold, level = vectorized.delta_fold, VectorizedEngine._delta_level

        def counting_fold(*args):
            counts["folds"] += bool(inside)
            return fold(*args)

        def counting_level(eng, views, win, k0, k1, *rest):
            counts["levels"] += 1
            counts["steps"] += k1 - k0
            inside.append(True)
            try:
                return level(eng, views, win, k0, k1, *rest)
            finally:
                inside.pop()

        monkeypatch.setattr(vectorized, "delta_fold", counting_fold)
        monkeypatch.setattr(VectorizedEngine, "_delta_level", counting_level)
        for s in (7, 12345):
            starts = [RoutingState.identity(alg, n),
                      random_state(alg, n, random.Random(s))]
            trials = [(sched, x) for x in starts
                      for sched in schedule_zoo(n, seeds=(s, s + 17))]
            results = BatchedVectorizedEngine(net).delta_grid(trials)
            assert all(r.converged for r in results)
        assert counts["folds"] <= counts["levels"]
        assert 2 * counts["levels"] <= counts["steps"]


# ----------------------------------------------------------------------
# The warm seed: σ from the certified fixed point after a write
# ----------------------------------------------------------------------


def _same_sigma(got, ref):
    """A σ report field for field, trajectory included."""
    assert (got.converged, got.rounds, got.churn) == \
        (ref.converged, ref.rounds, ref.churn)
    assert got.state == ref.state
    assert (got.trajectory is None) == (ref.trajectory is None)
    if ref.trajectory is not None:
        assert got.trajectory == ref.trajectory


def _count_seed_rounds(monkeypatch):
    """Count the warm seed's first rounds (every rung's, by the class
    every codes engine inherits it from)."""
    calls = []
    seed_round = VectorizedEngine._seed_round

    def counted(self, C, rows):
        calls.append(rows.size)
        return seed_round(self, C, rows)

    monkeypatch.setattr(VectorizedEngine, "_seed_round", counted)
    return calls


def _drawn_edge(data, alg, move_invalid=False):
    """An edge of the FiniteLevelAlgebra ``alg``: a strictly increasing
    clipped shift or an arbitrary table; with ``move_invalid``, maybe
    one that also maps the invalid route into the carrier."""
    levels = alg.levels
    if data.draw(st.booleans(), label="increasing"):
        w = data.draw(st.integers(1, levels))
        table = [min(x + w, levels) for x in range(levels)]
    else:
        table = data.draw(st.lists(st.integers(0, levels), min_size=levels,
                                   max_size=levels))
    if move_invalid and data.draw(st.booleans(), label="move invalid"):
        from repro.core.algebra import FunctionEdge
        image = tuple(table) + (data.draw(st.integers(0, levels - 1)),)
        return FunctionEdge(image.__getitem__, "moves-invalid")
    return alg.table_edge(table + [levels])


class TestWarmSeed:
    @pytest.mark.parametrize("spec", [
        pytest.param(EngineSpec("vectorized"), id="vectorized"),
        pytest.param(EngineSpec("parallel", workers=2),
                     marks=pytest.mark.parallel, id="parallel"),
    ])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_a_warm_run_reports_what_a_cold_run_reports(self, spec, data):
        """Bursts of writes — sets, removals, re-sets of present arcs,
        removals of absent ones, non-increasing tables, and bursts
        longer than the arc log — then σ from the certified fixed point:
        the report (converged, rounds, churn, state, trajectory) is a
        fresh session's from the same start."""
        levels = data.draw(st.integers(2, 5), label="levels")
        n = data.draw(st.integers(2, 6), label="n")
        alg = FiniteLevelAlgebra(levels)
        arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

        def edge():
            return _drawn_edge(data, alg)

        net = Network(alg, n, name="warm-oracle")
        for (i, k) in data.draw(st.lists(arc, unique=True), label="arcs"):
            net.set_edge(i, k, edge())
        kw = dict(max_rounds=4 * n * (levels + 1), keep_trajectory=True)
        with RoutingSession(net, spec) as session:
            fp = session.sigma(**kw).state
            for _burst in range(3):
                for _ in range(data.draw(st.integers(0, 6), label="writes")):
                    i, k = data.draw(arc)
                    if data.draw(st.booleans(), label="remove"):
                        net.remove_edge(i, k)
                    else:
                        net.set_edge(i, k, edge())
                if data.draw(st.booleans(), label="outrun the log"):
                    fn = edge()
                    for _ in range(n * n + 1):
                        net.set_edge(0, 0, fn)
                got = session.sigma(fp, **kw)
                assert got.resolution.chosen == spec.engine
                _same_sigma(got, RoutingSession(net, "vectorized")
                            .sigma(fp, **kw))
                if got.converged:
                    fp = got.state

    def test_only_the_certified_object_seeds_warm(self, monkeypatch):
        """σ from the certified fixed point seeds warm, with a first
        round over the written arc's importer only; a copy of it, or a
        fixed point another run has since replaced as the certificate,
        seeds cold — and every report is the cold one."""
        net = _hop_net(12, p=0.4, seed=1)
        alg = net.algebra
        seeds = _count_seed_rounds(monkeypatch)
        with RoutingSession(net, "vectorized") as session:
            fp = session.sigma().state
            assert seeds == []
            i, k = next(iter(net.present_edges()))
            net.remove_edge(i, k)
            warm = session.sigma(fp)
            assert seeds == [1]                 # row i only
            _same_sigma(warm, RoutingSession(net, "vectorized").sigma(fp))
            copied = session.sigma(warm.state.copy())
            assert seeds == [1]                 # a copy: cold
            again = session.sigma(copied.state)     # nothing written since
            assert seeds == [1, 0] and again.rounds == 0
            assert all(a is b for a, b in zip(again.state.rows,
                                              copied.state.rows))
            net.set_edge(i, k, alg.edge(1))
            stale = session.sigma(warm.state)   # no longer the certificate
            assert seeds == [1, 0]
            _same_sigma(stale, RoutingSession(net, "naive").sigma(
                warm.state))

    def test_the_remote_rung_never_seeds(self, monkeypatch):
        """The remote shards hold the matrix of the round they last
        ran, which a seed round computed by the coordinator would not
        be: a remote σ from its own fixed point runs cold, and its
        reports are naive's."""
        net = _hop_net(10, p=0.4, seed=3)
        seeds = _count_seed_rounds(monkeypatch)
        with RoutingSession(net, EngineSpec("remote",
                                            remote_workers=2)) as session:
            fp = session.sigma().state
            net.set_edge(0, net.n - 1, net.algebra.edge(1))
            got = session.sigma(fp)
        assert seeds == []
        _same_sigma(got, RoutingSession(net, "naive").sigma(fp))

    def test_the_decode_shares_every_row_that_did_not_move(self):
        """A warm run's fixed point shares each row object whose codes
        equal the certified state's, and decodes only the others."""
        net = _hop_net(16, p=0.3, seed=4)
        with RoutingSession(net, "vectorized") as session:
            fp = session.sigma().state
            for i, k in sorted(net.present_edges()):  # one that moves it
                trial = net.copy()
                trial.remove_edge(i, k)
                if RoutingSession(trial, "naive").sigma(fp).rounds:
                    break
            net.remove_edge(i, k)
            moved = session.sigma(fp).state
        same = [a is b for a, b in zip(moved.rows, fp.rows)]
        assert same == [a == b for a, b in zip(moved.rows, fp.rows)]
        assert not all(same)

    @pytest.mark.parametrize("spec", [
        pytest.param(EngineSpec("vectorized"), id="vectorized"),
        pytest.param(EngineSpec("parallel", workers=2),
                     marks=pytest.mark.parallel, id="parallel"),
    ])
    def test_another_adjacency_object_seeds_cold(self, spec):
        """Two copies of one network written to the same version, then
        the session's adjacency swapped for the other copy: the codes
        rungs rebuild their snapshot (the version alone does not say
        the arcs are the same) and seed cold, so σ from the old fixed
        point is naive's on the swapped-in matrix."""
        base = _hop_net(12, p=0.4, seed=3)
        alg = base.algebra
        ref_fp = RoutingSession(base, "naive").sigma().state
        # an arc whose heavier weight moves the fixed point
        for i, k in sorted(base.present_edges()):
            twin = base.copy()
            twin.set_edge(i, k, alg.edge(alg.bound))
            if RoutingSession(twin, "naive").sigma(ref_fp).rounds:
                break
        net = base.copy()
        net.set_edge(i, k, net.edge(i, k))
        assert net.adjacency.version == twin.adjacency.version
        with RoutingSession(net, spec) as session:
            fp = session.sigma().state
            session.network.adjacency = twin.adjacency
            moved = session.sigma(fp)
        ref = RoutingSession(twin, "naive").sigma(fp)
        assert moved.rounds > 0
        _same_sigma(moved, ref)


# ----------------------------------------------------------------------
# Theorem 7's premise, certified on the codes snapshot
# ----------------------------------------------------------------------


class TestUniqueFixedPoint:
    def test_one_non_increasing_arc_flips_the_capability(self):
        from repro.core.algebra import FunctionEdge

        net = _hop_net(10, p=0.4, seed=2)
        alg = net.algebra
        with RoutingSession(net, "vectorized") as session:
            ok = session.unique_fixed_point()
            assert (ok.holds, ok.bound, ok.code) == (True, alg.bound + 1,
                                                     None)
            i, k = sorted(net.present_edges())[4]
            before = net.edge(i, k)
            net.set_edge(i, k, FunctionEdge(lambda route: route, "stay"))
            broken = session.unique_fixed_point()
            assert (broken.holds, broken.bound, broken.code) == \
                (False, None, "not-strictly-increasing")
            assert f"arc ({i}, {k}) maps code 0 " in broken.detail
            net.remove_edge(i, k)
            assert session.unique_fixed_point() == ok
            net.set_edge(i, k, before)
            assert session.unique_fixed_point() == ok

    def test_an_arc_that_moves_the_invalid_route(self):
        from repro.core.algebra import FunctionEdge

        net = _hop_net(8, p=0.4, seed=5)
        bound = net.algebra.bound
        net.set_edge(3, 1, FunctionEdge(
            lambda x: bound - 1 if x == bound else min(x + 1, bound),
            "revive"))
        got = RoutingSession(net, "vectorized").unique_fixed_point()
        assert (got.holds, got.code) == (False, "invalid-not-absorbing")
        assert "arc (3, 1)" in got.detail

    def test_object_rungs_have_no_snapshot_to_check(self):
        got = RoutingSession(_hop_net(6), "incremental").unique_fixed_point()
        assert (got.holds, got.bound, got.code) == \
            (False, None, "no-finite-encoding")
        sp = ShortestPathsAlgebra()
        net = erdos_renyi(sp, 6, 0.4, uniform_weight_factory(sp, 1, 4),
                          seed=1)
        got = RoutingSession(net).unique_fixed_point()
        assert (got.holds, got.code) == (False, "no-finite-encoding")

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_patched_breach_equals_the_full_check(self, data):
        """Bursts of writes with strictly increasing and arbitrary
        tables, the check computed before every refresh: each patched
        snapshot's breach is a from-scratch snapshot's, and one without
        a breach carries its answer through the patch."""
        levels = data.draw(st.integers(2, 5), label="levels")
        n = data.draw(st.integers(1, 5), label="n")
        alg = FiniteLevelAlgebra(levels)
        arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))

        def edge():
            return _drawn_edge(data, alg, move_invalid=True)

        net = Network(alg, n, name="breach-oracle")
        for (i, k) in data.draw(st.lists(arc, unique=True), label="arcs"):
            net.set_edge(i, k, edge())
        eng = VectorizedEngine(net)
        for _burst in range(4):
            old, version = eng._topo, eng._version
            clean = old.breach is None
            for _ in range(data.draw(st.integers(0, 6), label="writes")):
                i, k = data.draw(arc)
                if data.draw(st.booleans(), label="remove"):
                    net.remove_edge(i, k)
                else:
                    net.set_edge(i, k, edge())
            patched = net.adjacency.arcs_since(version) is not None
            eng.refresh()
            if eng._topo is not old and clean and patched:
                assert "breach" in eng._topo.__dict__     # carried
            assert eng._topo.breach == VectorizedEngine(net)._topo.breach


def _code_distance(size, A, B):
    """Section 4.1's ``D(X, Y)`` on code matrices: the masked max of the
    height ``size − code`` of the better route of each differing entry."""
    import numpy as np

    diff = A != B
    return int((size - np.minimum(A, B))[diff].max()) if diff.any() else 0


class TestTheoremFourOnCodes:
    """The premise of the daemon's ``max_rounds >= size`` gate: on a
    strictly increasing finite algebra σ strictly contracts on orbits
    under the DV ultrametric, whose height on codes is ``size − code``,
    so from any start σ stops changing within ``size − 1`` rounds."""

    @pytest.mark.parametrize("algebra", ["hop-count", "reliable",
                                         "stratified-bounded"])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_rounds_and_distances_from_any_start(self, algebra, data):
        import numpy as np

        from repro.cli import build_network
        from repro.core.ultrametric import DistanceVectorUltrametric

        n = data.draw(st.integers(2, 10), label="n")
        net, factory = build_network(algebra, "random", n,
                                     data.draw(st.integers(0, 99)))
        with RoutingSession(net, "vectorized") as session:
            assert session.unique_fixed_point().holds
            eng = session._engines["vectorized"]
            size = eng.encoding.size
            rnd = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
            starts = [eng.decode_state(
                rnd.integers(0, size, (n, n)).astype(np.int32))]
            fp = session.sigma().state
            i, k = data.draw(st.sampled_from(
                [(a, b) for a in range(n) for b in range(n)]))
            if data.draw(st.booleans(), label="remove"):
                net.remove_edge(i, k)
            else:
                net.set_edge(i, k, factory(random.Random(i * n + k), i, k))
            starts.append(fp)                   # a warm start
            dv = DistanceVectorUltrametric(net.algebra) if n <= 8 else None
            for start in starts:
                report = session.sigma(start, keep_trajectory=True,
                                       max_rounds=size)
                assert report.converged and report.rounds <= size - 1
                codes = [eng.encode_state(x) for x in report.trajectory]
                ds = [_code_distance(size, a, b)
                      for a, b in zip(codes, codes[1:])]
                assert ds[-1] == 0 and all(ds[:-1])
                assert all(a > b for a, b in zip(ds, ds[1:]))
                if dv is not None:
                    assert ds == [dv.state_distance(a, b) for a, b in zip(
                        report.trajectory, report.trajectory[1:])]
