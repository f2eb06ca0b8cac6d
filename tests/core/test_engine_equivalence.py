"""Differential oracle: naive vs incremental vs vectorized vs parallel
vs batched vs remote.

An engine's speedup only counts if its compressed/sharded/stacked
iteration reaches exactly the reference fixed points, so this module
holds every rung of the six-engine ladder to *observational identity*:
identical per-round lockstep states, identical trajectories, fixed
points (or cycle verdicts), round counts and churn for σ, and identical
histories/convergence times for δ — across every shipped finite
algebra, two non-finite controls (which must fall back, not diverge),
and random-gnp / chain / gadget topology families.

The parallel engine is exercised with an explicit ``workers=2`` pool
(auto mode would decline these small nets and single-CPU CI hosts —
exactly the fallback it is supposed to take); one pool serves the
lockstep phase of each oracle call and is torn down in a ``finally``,
while the σ fixed-point and δ phases go through a ``RoutingSession``
pinned to the parallel rung so the dispatch path is covered too.  The
vectorized, parallel and batched rungs all run δ on the one compiled
step (the B = 1 grid); the batched engine is additionally exercised as
one multi-trial ``delta_grid`` over every schedule at once — each trial
of the grid must match the strict literal recursion for its schedule.

``assert_engines_agree`` is the reusable oracle; other test modules and
the benchmark harness lean on the same contract.  The ``--engine``
pytest option (see ``tests/conftest.py``) restricts the per-engine
parametrised tests to one engine for CI sharding — ``parallel``
included; ``-m slow`` runs the scaled-up sizes.
"""

import random

import pytest

np = pytest.importorskip("numpy")

from repro.algebras import (
    BGPLiteAlgebra,
    BoundedStratifiedAlgebra,
    FiniteLevelAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
    good_gadget,
    increasing_disagree,
)
from repro.algebras.bgplite import random_policy
from repro.core import (
    LADDER,
    AdversarialStaleSchedule,
    BatchedVectorizedEngine,
    FixedDelaySchedule,
    ParallelVectorizedEngine,
    RandomSchedule,
    RoundRobinSchedule,
    RoutingState,
    SynchronousSchedule,
    VectorizedEngine,
    sigma,
    sigma_propagate,
    sigma_with_dirty,
    random_state,
    supports_parallel,
    supports_vectorized,
)
from repro.core import vectorized
from repro.session import EngineSpec, RoutingSession
from repro.topologies import erdos_renyi, line, uniform_weight_factory

pytestmark = pytest.mark.engine_matrix


# ----------------------------------------------------------------------
# Network families: (algebra × topology) builders, each taking a size.
# ----------------------------------------------------------------------


def _hop(n, seed=1):
    alg = HopCountAlgebra(16)
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


def _hop_chain(n, seed=1):
    alg = HopCountAlgebra(32)
    return line(alg, n, uniform_weight_factory(alg, 1, 2), seed=seed)


def _finite_chain_alg(n, seed=2):
    alg = FiniteLevelAlgebra(7)
    return erdos_renyi(alg, n, 0.3,
                       lambda rng, _i, _j: alg.random_strict_edge(rng),
                       seed=seed)


def _stratified(n, seed=3):
    alg = BoundedStratifiedAlgebra(max_level=3, max_distance=10)
    return erdos_renyi(alg, n, 0.3,
                       lambda rng, _i, _j: alg.sample_edge_function(rng),
                       seed=seed)


def _shortest(n, seed=4):
    alg = ShortestPathsAlgebra()
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 9),
                       seed=seed)


def _bgplite(n, seed=5):
    alg = BGPLiteAlgebra(n_nodes=n)

    def factory(rng, i, j):
        pol = random_policy(rng, alg.community_universe, n,
                            allow_reject=False)
        return alg.edge(i, j, pol)

    return erdos_renyi(alg, n, 0.3, factory, seed=seed)


#: family name → builder(n).  Gadgets have fixed sizes; the size
#: argument is ignored there so they slot into the same matrix.
FAMILIES = {
    "gnp/hop-count": _hop,
    "chain/hop-count": _hop_chain,
    "gnp/finite-chain": _finite_chain_alg,
    "gnp/stratified-bounded": _stratified,
    "gnp/shortest-paths": _shortest,
    "gnp/bgplite": _bgplite,
    "gadget/spp-good": lambda n, seed=0: good_gadget(),
    "gadget/spp-increasing-disagree": lambda n, seed=0: increasing_disagree(),
}

#: families whose algebra must vectorize (the rest must fall back)
FINITE_FAMILIES = frozenset({
    "gnp/hop-count", "chain/hop-count", "gnp/finite-chain",
    "gnp/stratified-bounded",
})


def _schedules(n, seed=0):
    return [
        SynchronousSchedule(n),
        RoundRobinSchedule(n),
        FixedDelaySchedule(n, delay=3),
        AdversarialStaleSchedule(n, max_delay=5, burst=2),
        RandomSchedule(n, seed=seed + 8, max_delay=4),
    ]


# ----------------------------------------------------------------------
# The reusable oracle
# ----------------------------------------------------------------------


#: extra spec kwargs per engine: the parallel engine gets an explicit
#: 2-worker pool, because auto mode would (correctly) decline the
#: oracle's small nets and any single-CPU CI host; the remote engine
#: gets a 2-shard loopback TCP transport for the same reason.
ENGINE_KWARGS = {"parallel": {"workers": 2},
                 "remote": {"remote_workers": 2}}


def engine_session(net, engine) -> RoutingSession:
    """A session pinned to one ladder rung (oracle pool sizing applied)."""
    return RoutingSession(net, EngineSpec(engine,
                                          **ENGINE_KWARGS.get(engine, {})))


def assert_engines_agree(net, schedules=(), lockstep_rounds=10,
                         max_rounds=500, max_steps=500):
    """Assert all engines are observationally identical on ``net``.

    Driven through :class:`repro.session.RoutingSession` — one session
    per ladder rung, so the dispatch path under test is exactly the
    public facade (and its capability negotiation):

    * per-round lockstep: naive σ vs incremental dirty-set propagation
      vs the one-round ``sigma`` of the vectorized, pool-computed
      parallel and batched engines;
    * σ runs: ``session.sigma()`` under every engine spec agrees on
      convergence (or cycle verdict), round count, final state,
      trajectory and churn count (:func:`assert_sigma_agrees`);
    * δ oracle: for every schedule, ``strict`` (literal recursion) vs
      incremental vs vectorized vs parallel vs batched vs remote
      session runs agree on convergence step and final state;
    * δ grid: one ``BatchedVectorizedEngine.delta_grid`` over *all*
      schedules at once — every trial must match its strict reference.

    Non-finite algebras exercise the documented fallback ladder: the
    vectorized, parallel and batched sessions must behave exactly like
    the incremental one (their resolutions record the skipped rungs).
    """
    alg = net.algebra
    start = RoutingState.identity(alg, net.n)
    vec = VectorizedEngine(net) if supports_vectorized(alg) else None
    bat = BatchedVectorizedEngine(net) if supports_vectorized(alg) else None
    par = (ParallelVectorizedEngine(net, workers=2)
           if supports_parallel(alg) else None)
    sessions = {e: engine_session(net, e) for e in LADDER}
    try:
        # -- per-round lockstep --------------------------------------------
        naive = start
        inc, dirty = start, None
        for _ in range(lockstep_rounds):
            nxt = sigma(net, naive)
            if dirty is None:
                inc, dirty = sigma_with_dirty(net, inc)
            else:
                inc, dirty = sigma_propagate(net, inc, dirty)
            assert inc.equals(nxt, alg), "incremental σ diverged from naive"
            if vec is not None:
                assert vec.sigma(naive).equals(nxt, alg), \
                    "vectorized σ diverged from naive"
            if par is not None:
                assert par.sigma(naive).equals(nxt, alg), \
                    "parallel σ diverged from naive"
            if bat is not None:
                assert bat.sigma(naive).equals(nxt, alg), \
                    "batched σ diverged from naive"
            naive = nxt

        # -- σ runs --------------------------------------------------------
        ref = assert_sigma_agrees(net, start, sessions, max_rounds)["naive"]

        # -- δ oracle ------------------------------------------------------
        stricts = []
        for sched in schedules:
            strict = sessions["incremental"].delta(
                sched, start, max_steps=max_steps, strict=True).result
            stricts.append(strict)
            inc = sessions["incremental"].delta(
                sched, start, max_steps=max_steps).result
            runs = [("incremental", inc)] + [
                (rung, sessions[rung].delta(
                    sched, start, max_steps=max_steps).result)
                for rung in ("vectorized", "parallel", "batched", "remote")]
            for name, res in runs:
                assert res.converged == strict.converged, (name, repr(sched))
                assert res.converged_at == strict.converged_at, \
                    (name, repr(sched))
                assert res.state.equals(strict.state, alg), (name, repr(sched))

        # -- δ grid (all schedules as one tensor workload) -----------------
        if bat is not None and schedules:
            grid = bat.delta_grid([(sched, start) for sched in schedules],
                                  max_steps=max_steps)
            for sched, res, strict in zip(schedules, grid, stricts):
                assert res.converged == strict.converged, repr(sched)
                assert res.converged_at == strict.converged_at, repr(sched)
                assert res.state.equals(strict.state, alg), repr(sched)
        return ref
    finally:
        for session in sessions.values():
            session.close()
        if par is not None:
            par.close()


def assert_sigma_agrees(net, start, sessions, max_rounds=500):
    """Every session's σ run from ``start`` equals the naive rung's:
    convergence or cycle verdict, round count, final state, trajectory
    and churn.  Returns the reports by session name."""
    alg = net.algebra
    results = {name: s.sigma(start, max_rounds=max_rounds,
                             detect_cycles=True, keep_trajectory=True)
               for name, s in sessions.items()}
    ref = results["naive"]
    for name, res in results.items():
        assert res.converged == ref.converged, name
        assert res.rounds == ref.rounds, name
        assert res.state.equals(ref.state, alg), name
        assert res.churn == ref.churn, name
        assert len(res.trajectory) == len(ref.trajectory), name
        for got, want in zip(res.trajectory, ref.trajectory):
            assert got.equals(want, alg), name
        if name in ("naive", "incremental"):
            assert res.resolution.chosen == name
    return results


# ----------------------------------------------------------------------
# The oracle across the (algebra × topology) matrix
# ----------------------------------------------------------------------


class TestOracleMatrix:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_small(self, family):
        net = FAMILIES[family](9)
        assert_engines_agree(net, schedules=_schedules(net.n),
                             max_steps=400)

    @pytest.mark.slow
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scaled(self, family):
        net = FAMILIES[family](24, seed=11)
        assert_engines_agree(net, schedules=_schedules(net.n, seed=11),
                             lockstep_rounds=6, max_steps=900)

    def test_sigma_cycle_verdict_agrees_on_every_rung(self):
        """A finite algebra with arbitrary (non-increasing) edge tables
        oscillates under σ: every rung must stop on the same repeated
        state, after the same rounds, with the same churn."""
        alg = FiniteLevelAlgebra(5)
        net = erdos_renyi(alg, 7, 0.5,
                          lambda rng, _i, _j: alg.random_arbitrary_edge(rng),
                          seed=4)
        sessions = {e: engine_session(net, e) for e in LADDER}
        try:
            reports = assert_sigma_agrees(
                net, RoutingState.identity(alg, net.n), sessions,
                max_rounds=200)
        finally:
            for session in sessions.values():
                session.close()
        assert not reports["naive"].converged
        assert reports["naive"].rounds < 200    # stopped by the cycle
        for name, report in reports.items():
            assert report.resolution.chosen == name

    @pytest.mark.parametrize("family", sorted(FINITE_FAMILIES))
    def test_finite_families_vectorize(self, family):
        assert supports_vectorized(FAMILIES[family](6).algebra)

    def test_tiled_grid_in_several_stacks_matches_naive(self, monkeypatch):
        """One grid whose steps fold in several tiles (two in-edges a
        tile, so cuts fall between activations and a larger activation
        is a tile of its own) and whose ring splits into several stacks
        (three trials each): every trial on every in-process codes rung
        is bit-identical to the literal recursion on the naive rung."""
        net = _hop(9, seed=5)
        alg = net.algebra
        scheds = _schedules(net.n, seed=5)
        starts = [RoutingState.identity(alg, net.n),
                  random_state(alg, net.n, random.Random(2))]
        trials = [(sched, start) for start in starts for sched in scheds]
        # the ring is one past the widest read window (declared + 2)
        slots = max(sched.max_read_back() for sched in scheds) + 3
        codes = np.dtype(VectorizedEngine(net)._topo.dtype).itemsize
        monkeypatch.setattr(vectorized, "FOLD_TILE", 2 * net.n)
        monkeypatch.setattr(vectorized, "RING_BUDGET",
                            3 * slots * net.n * net.n * codes)
        stacks = []
        stack = VectorizedEngine._delta_stack

        def recording_stack(eng, lo, stack_scheds, *rest):
            stacks.append(len(stack_scheds))
            return stack(eng, lo, stack_scheds, *rest)

        monkeypatch.setattr(VectorizedEngine, "_delta_stack",
                            recording_stack)
        with engine_session(net, "naive") as ref_s:
            ref = ref_s.delta_grid(trials, max_steps=400,
                                   keep_results=True).results
        for rung in ("vectorized", "parallel", "batched"):
            stacks.clear()
            with engine_session(net, rung) as s:
                grid = s.delta_grid(trials, max_steps=400,
                                    keep_results=True)
            assert grid.resolution.chosen == rung
            assert stacks == [3, 3, 3, 1], rung
            for (sched, _start), res, want in zip(trials, grid.results,
                                                  ref):
                assert res.converged == want.converged, (rung, repr(sched))
                assert res.steps == want.steps, (rung, repr(sched))
                assert res.converged_at == want.converged_at, \
                    (rung, repr(sched))
                assert res.state.equals(want.state, alg), (rung, repr(sched))

    def test_lockstep_from_garbage_state(self):
        """The theorems quantify over arbitrary starts; so does the
        oracle."""
        net = _hop(10, seed=9)
        rng = random.Random(7)
        garbage = RoutingState.from_function(
            lambda i, j: net.algebra.sample_route(rng), net.n)
        alg = net.algebra
        vec = VectorizedEngine(net)
        state = garbage
        for _ in range(8):
            nxt = sigma(net, state)
            assert vec.sigma(state).equals(nxt, alg)
            state = nxt


class TestPerEngine:
    """Tests parametrised by the ``--engine`` fixture (CI sharding),
    driven through :class:`repro.session.RoutingSession`."""

    def test_reaches_reference_fixed_point(self, engine):
        net = _hop(10, seed=2)
        start = RoutingState.identity(net.algebra, net.n)
        with engine_session(net, engine) as s, \
                engine_session(net, "naive") as ref_s:
            res = s.sigma(start)
            ref = ref_s.sigma(start)
        assert res.converged and res.rounds == ref.rounds
        assert res.state.equals(ref.state, net.algebra)

    def test_delta_matches_strict(self, engine):
        net = _finite_chain_alg(8, seed=6)
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=4, max_delay=4)
        with engine_session(net, engine) as s:
            res = s.delta(sched, start, max_steps=400)
            ref = s.delta(sched, start, max_steps=400, strict=True)
        assert res.converged == ref.converged
        assert res.converged_at == ref.converged_at
        assert res.state.equals(ref.state, net.algebra)

    def test_mid_run_topology_change(self, engine):
        """Engine-agnostic mirror of the PR 1 cache-invalidation tests:
        reconverging after set_edge must see the new topology — through
        one session whose managed engines must re-snapshot."""
        net = _hop(10, seed=3)
        alg = net.algebra
        with engine_session(net, engine) as s:
            fp = s.sigma(RoutingState.identity(alg, net.n)).state
            net.set_edge(0, net.n - 1, alg.edge(1))
            net.set_edge(net.n - 1, 0, alg.edge(1))
            res = s.sigma(fp)
        with engine_session(net, "naive") as ref_s:
            ref = ref_s.sigma(fp)
        assert res.converged and res.rounds == ref.rounds
        assert res.state.equals(ref.state, alg)
