"""The session facade contract: negotiation, reports, resources.

Three obligations pinned here:

1. **Reason chains are exact** — for every (algebra × engine) pair of
   the oracle matrix the :class:`~repro.core.capabilities.EngineResolution`
   skip chain is asserted code-for-code, and ``strict=True`` raises
   :class:`~repro.core.capabilities.UnsupportedEngineError` where
   fallback used to be silent.
2. **Resources are managed** — the parallel pool a session builds is
   closed by the context manager; the session keeps no compiled
   schedule.
3. **Metadata is recorded** — the
   :data:`~repro.core.schedule.RandomSchedule.SCHEDULE_SEED_VERSION`
   rides on δ/grid reports.
4. **Operations are the paper's operators** — on every rung the σ
   trajectory is the literal σᵏ iteration, δ is the literal δᵗ
   recursion, a grid is the fold of its single runs, and a simulation
   matches the object-model simulator.
"""

import gc
import random
import weakref

import numpy as np
import pytest

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
    CompiledSchedule,
    RandomSchedule,
    RoutingState,
    Schedule,
    SynchronousSchedule,
    UnsupportedEngineError,
    delta_step_literal,
    is_stable,
    random_state,
    resolve_engine,
    schedule_zoo,
    sigma,
    supports_parallel,
    supports_vectorized,
)
from repro.protocols import LinkConfig, Simulator
from repro.session import (
    EngineSpec,
    RoutingSession,
    schedule_seed_version,
)
from repro.topologies import erdos_renyi, line, uniform_weight_factory


# ----------------------------------------------------------------------
# The oracle matrix families (mirrors tests/core/test_engine_equivalence)
# ----------------------------------------------------------------------


def _hop(n=9, seed=1):
    alg = HopCountAlgebra(16)
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


def _hop_chain(n=9, seed=1):
    alg = HopCountAlgebra(32)
    return line(alg, n, uniform_weight_factory(alg, 1, 2), seed=seed)


def _finite_chain(n=9, seed=2):
    alg = FiniteLevelAlgebra(7)
    return erdos_renyi(alg, n, 0.3,
                       lambda rng, _i, _j: alg.random_strict_edge(rng),
                       seed=seed)


def _stratified(n=9, seed=3):
    alg = BoundedStratifiedAlgebra(max_level=3, max_distance=10)
    return erdos_renyi(alg, n, 0.3,
                       lambda rng, _i, _j: alg.sample_edge_function(rng),
                       seed=seed)


def _shortest(n=9, seed=4):
    alg = ShortestPathsAlgebra()
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 9),
                       seed=seed)


def _bgplite(n=9, seed=5):
    alg = BGPLiteAlgebra(n_nodes=n)

    def factory(rng, i, j):
        pol = random_policy(rng, alg.community_universe, n,
                            allow_reject=False)
        return alg.edge(i, j, pol)

    return erdos_renyi(alg, n, 0.3, factory, seed=seed)


FAMILIES = {
    "gnp/hop-count": _hop,
    "chain/hop-count": _hop_chain,
    "gnp/finite-chain": _finite_chain,
    "gnp/stratified-bounded": _stratified,
    "gnp/shortest-paths": _shortest,
    "gnp/bgplite": _bgplite,
    "gadget/spp-good": lambda: good_gadget(),
    "gadget/spp-increasing-disagree": lambda: increasing_disagree(),
}


class _UnboundedSchedule(Schedule):
    """Synchronous-looking schedule that declares no staleness bound."""

    def alpha(self, t):
        return frozenset(range(self.n))

    def beta(self, t, i, j):
        return t - 1


# ----------------------------------------------------------------------
# 1. Exact reason chains across the oracle matrix
# ----------------------------------------------------------------------


def expected_sigma_chain(net, engine):
    """The exact (rung, code) skip chain the resolver must produce for
    a σ request with an explicit 2-worker pool."""
    finite = supports_vectorized(net.algebra)
    shm = supports_parallel(net.algebra) if finite else None
    if engine in ("naive", "incremental"):
        return [], engine
    if finite:
        if engine == "remote":
            # this matrix configures no remote transport, so the remote
            # rung always skips with its machine-readable code and the
            # ladder continues at batched
            return [("remote", "no-remote-endpoints")], "batched"
        if engine == "parallel" and not shm:
            return [("parallel", "no-shared-memory")], "vectorized"
        if engine == "batched" and not shm:
            return [], "batched"
        return [], engine
    ladder = {"vectorized": ["vectorized"],
              "parallel": ["parallel", "vectorized"],
              "batched": ["batched", "parallel", "vectorized"],
              "remote": ["remote", "batched", "parallel",
                         "vectorized"]}[engine]
    return [(rung, "no-finite-encoding") for rung in ladder], "incremental"


class TestReasonChains:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("rung", LADDER)
    def test_sigma_chain_exact(self, family, rung):
        net = FAMILIES[family]()
        skips, chosen = expected_sigma_chain(net, rung)
        res = resolve_engine(net, rung, "sigma", workers=2)
        assert res.reason_codes() == skips, (family, rung)
        assert res.chosen == chosen, (family, rung)
        assert res.requested == rung
        assert res.fell_back == bool(skips)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("rung", LADDER)
    def test_strict_raises_exactly_where_fallback_was_silent(self, family,
                                                             rung):
        net = FAMILIES[family]()
        skips, chosen = expected_sigma_chain(net, rung)
        if chosen == rung:
            res = resolve_engine(net, rung, "sigma", workers=2,
                                 strict=True)
            assert res.chosen == rung
        else:
            with pytest.raises(UnsupportedEngineError) as exc:
                resolve_engine(net, rung, "sigma", workers=2, strict=True)
            assert exc.value.resolution.reason_codes() == skips

    def test_auto_never_raises(self):
        for family in FAMILIES:
            net = FAMILIES[family]()
            res = resolve_engine(net, "auto", "sigma", strict=True)
            assert res.chosen in LADDER
            # oracle nets are far below PARALLEL_MIN_N, so for finite
            # algebras auto always skips the parallel rung for one of
            # the two sizing reasons; non-finite ones fail the
            # capability check first
            par = [s for s in res.skipped if s.rung == "parallel"]
            if par and supports_vectorized(net.algebra):
                assert par[0].code in ("auto-single-cpu", "below-min-n")
            elif par:
                assert par[0].code in ("no-finite-encoding",
                                       "no-shared-memory")

    def test_delta_policy_chains(self):
        net = _hop()
        sched = _UnboundedSchedule(net.n)
        assert sched.max_read_back() is None
        res = resolve_engine(net, "batched", "delta", workers=2,
                             schedule=sched)
        assert res.reason_codes() == [("batched", "unbounded-schedule"),
                                      ("parallel", "unbounded-schedule"),
                                      ("vectorized", "unbounded-schedule")]
        assert res.chosen == "incremental"

        bounded = SynchronousSchedule(net.n)
        res = resolve_engine(net, "parallel", "delta", workers=2,
                             schedule=bounded, keep_history=True)
        assert res.reason_codes() == [("parallel", "keep-history"),
                                      ("vectorized", "keep-history")]
        assert res.chosen == "incremental"

        # auto δ starts at the vectorized rung: the compiled step
        res = resolve_engine(net, "auto", "delta", schedule=bounded)
        assert res.chosen == "vectorized" and not res.skipped

        res = resolve_engine(net, "batched", "delta", workers=2,
                             schedule=bounded, literal=True)
        assert res.reason_codes() == [
            ("batched", "literal-history"), ("parallel", "literal-history"),
            ("vectorized", "literal-history"),
            ("incremental", "literal-history")]
        assert res.chosen == "naive"

    def test_worker_sizing_chain(self):
        net = _hop()
        res = resolve_engine(net, "parallel", "sigma", workers=1)
        assert res.reason_codes()[0] == ("parallel", "workers-lt-2")
        with pytest.raises(UnsupportedEngineError):
            resolve_engine(net, "parallel", "sigma", workers=1, strict=True)

    def test_stability_chain(self):
        """A lone σ-stability check is one round of the σ loop every
        codes rung runs, so no rung declines it on policy."""
        net = _hop()
        for rung in ("batched", "parallel", "vectorized"):
            res = resolve_engine(net, rung, "stability", workers=2)
            assert res.chosen == rung and not res.skipped

    def test_unknown_engine_rejected(self):
        net = _hop()
        with pytest.raises(ValueError):
            resolve_engine(net, "quantum", "sigma")
        with pytest.raises(ValueError):
            EngineSpec("quantum")

    def test_resolution_rides_on_reports(self):
        net = _shortest()
        with RoutingSession(net, EngineSpec("batched")) as s:
            report = s.sigma()
        assert report.resolution.chosen == "incremental"
        assert report.resolution.reason_codes() == [
            ("batched", "no-finite-encoding"),
            ("parallel", "no-finite-encoding"),
            ("vectorized", "no-finite-encoding")]

    def test_strict_session_raises_on_entry(self):
        net = _shortest()
        with RoutingSession(net, EngineSpec("vectorized",
                                            strict=True)) as s:
            with pytest.raises(UnsupportedEngineError):
                s.sigma()

    def test_capabilities_advertised_on_classes(self):
        from repro.core import (BatchedVectorizedEngine,
                                ParallelVectorizedEngine,
                                RemoteVectorizedEngine, VectorizedEngine)
        assert VectorizedEngine.capabilities.requires_finite_algebra
        assert ParallelVectorizedEngine.capabilities.requires_shared_memory
        assert ParallelVectorizedEngine.capabilities.min_n > 0
        assert BatchedVectorizedEngine.capabilities.requires_finite_algebra
        assert RemoteVectorizedEngine.capabilities.requires_remote_endpoints


# ----------------------------------------------------------------------
# 2. Managed resources
# ----------------------------------------------------------------------


class TestManagedResources:
    @pytest.mark.parallel
    def test_pool_closed_on_exit(self):
        net = _hop(8)
        with RoutingSession(net, EngineSpec("parallel", workers=2)) as s:
            report = s.sigma()
            assert report.resolution.chosen == "parallel"
            pool = s._engines["parallel"]
            assert not pool.closed
            # a second call reuses the same pool
            s.sigma()
            assert s._engines["parallel"] is pool
        assert pool.closed

    @pytest.mark.parallel
    def test_pool_reused_across_delta_grid(self):
        net = _hop(8)
        sched = SynchronousSchedule(net.n)
        start = RoutingState.identity(net.algebra, net.n)
        with RoutingSession(net, EngineSpec("parallel", workers=2)) as s:
            s.delta_grid([(sched, start)] * 3, max_steps=120)
            pool = s._engines["parallel"]
            report = s.delta(sched, start, max_steps=120)
            assert s._engines["parallel"] is pool
            assert report.resolution.chosen == "parallel"
            # δ runs the compiled step in process: IPC counters only
            # come from the remote rung
            assert report.ipc_commands is None and report.ipc_steps is None
        assert pool.closed

    @pytest.mark.parametrize("rung", ["vectorized", "batched"])
    def test_session_holds_no_schedule_after_a_run(self, rung):
        """The engine compiles a schedule for the call that runs it:
        after a δ run or a grid, nothing keeps the schedule alive."""
        net = _hop(8)
        start = RoutingState.identity(net.algebra, net.n)
        with RoutingSession(net, EngineSpec(rung)) as s:
            runs = (lambda sched: s.delta(sched, start, max_steps=200),
                    lambda sched: s.delta_grid([(sched, start)] * 2,
                                               max_steps=200))
            for seed, run in enumerate(runs):
                sched = RandomSchedule(net.n, seed=seed, max_delay=3)
                alive = weakref.ref(sched)
                assert run(sched).resolution.chosen == rung
                del sched
                gc.collect()
                assert alive() is None

    @pytest.mark.parametrize("rung", ["vectorized", "parallel", "batched",
                                      "remote"])
    def test_grid_derives_an_undeclared_bound_once(self, rung):
        """A schedule that declares no staleness bound has it derived
        (a walk over the whole horizon) once per schedule object and
        horizon: not once per trial, and not again when the same grid
        runs a second time."""
        walks = []

        class Unbounded(RandomSchedule):
            def max_read_back(self):
                return None

            def alpha(self, t):
                if t == 200:             # only a walk reaches the horizon
                    walks.append(t)
                return super().alpha(t)

        net = _hop(8)
        sched = Unbounded(net.n, seed=4, max_delay=3)
        starts = [random_state(net.algebra, net.n, random.Random(k))
                  for k in range(3)]
        kwargs = {"parallel": {"workers": 2},
                  "remote": {"remote_workers": 2}}.get(rung, {})
        with RoutingSession(net, EngineSpec(rung, **kwargs)) as s:
            for _ in range(2):
                grid = s.delta_grid([(sched, x) for x in starts],
                                    max_steps=200)
                assert grid.resolution.chosen == rung and grid.all_converged
        assert len(walks) == 1

    @pytest.mark.parametrize("rung", LADDER)
    def test_schedule_sized_for_another_network_is_refused(self, rung):
        """Every rung refuses a schedule whose node count differs from
        the network's, before running anything."""
        net = _hop(8)
        start = RoutingState.identity(net.algebra, net.n)
        kwargs = {"parallel": {"workers": 2},
                  "remote": {"remote_workers": 2}}.get(rung, {})
        with RoutingSession(net, EngineSpec(rung, **kwargs)) as s:
            for sched in (RandomSchedule(12, seed=1),
                          SynchronousSchedule(5)):
                sizes = f"sized for {sched.n} nodes but the network has 8"
                with pytest.raises(ValueError, match=sizes):
                    s.delta(sched, start, max_steps=200)
                with pytest.raises(ValueError, match=sizes):
                    s.delta_grid([(sched, start)], max_steps=200)
            assert not s._engines      # nothing was built or run

    def test_negative_round_budget_is_refused(self):
        """σ and replay refuse a negative ``max_rounds`` before anything
        runs, as δ refuses a negative ``max_steps``."""
        net = _hop(8)
        with RoutingSession(net) as s:
            with pytest.raises(ValueError, match="max_rounds"):
                s.sigma(max_rounds=-3)
            with pytest.raises(ValueError, match="max_rounds"):
                s.replay([], max_rounds=-1)
            assert not s._engines      # nothing was built or run
            assert s.sigma(max_rounds=0).rounds == 0

    @pytest.mark.parametrize("rung", LADDER)
    def test_step_budget_rules(self, rung, monkeypatch):
        """``max_steps=0`` gives every rung the same answer — the start,
        0 steps, not converged, one state retained — and a negative
        budget is refused before anything runs."""
        net = _hop(8)
        start = random_state(net.algebra, net.n, random.Random(3))
        sched = RandomSchedule(net.n, seed=2, max_delay=3)
        kwargs = {"parallel": {"workers": 2},
                  "remote": {"remote_workers": 2}}.get(rung, {})
        with RoutingSession(net, EngineSpec(rung, **kwargs)) as s:
            for bad in (-1, -5):
                with pytest.raises(ValueError, match="max_steps"):
                    s.delta(sched, start, max_steps=bad)
                with pytest.raises(ValueError, match="max_steps"):
                    s.delta_grid([(sched, start)], max_steps=bad)
            assert not s._engines      # nothing was built or run
            s.delta(sched, start, max_steps=40)

            def refuse(*_args):
                raise AssertionError("a zero-step run compiled a schedule")

            monkeypatch.setattr(CompiledSchedule, "__init__", refuse)
            report = s.delta(sched, start, max_steps=0)
            if rung == "remote":       # the earlier run's counters reset
                assert (report.wire.commands, report.ipc_commands) == (0, 0)
            grid = s.delta_grid([(sched, start)] * 2, max_steps=0,
                                keep_results=True)
            assert report.resolution.chosen == rung
            assert grid.resolution.chosen == rung
            for res in [report.result] + grid.results:
                assert (res.converged, res.steps, res.converged_at,
                        res.history_retained) == (False, 0, None, 1)
                assert res.state.equals(start, net.algebra)
            assert not grid.all_converged

    def test_closed_session_refuses(self):
        net = _hop()
        s = RoutingSession(net)
        s.close()
        with pytest.raises(RuntimeError):
            s.sigma()

    def test_batched_dtype_is_narrowest_fit(self):
        net = _hop(6)
        sched = RandomSchedule(net.n, seed=1, max_delay=3)
        start = RoutingState.identity(net.algebra, net.n)
        with RoutingSession(net, EngineSpec("batched")) as s:
            a = s.delta(sched, start, max_steps=200)
            assert a.resolution.chosen == "batched"
            assert np.dtype(s._engines["batched"]._topo.dtype) == \
                np.dtype("int16")
        with RoutingSession(net, "incremental") as ref:
            b = ref.delta(sched, start, max_steps=200)
        assert a.converged == b.converged
        assert a.converged_at == b.converged_at
        assert a.state.equals(b.state, net.algebra)

    def test_batched_dtype_widens_for_large_carrier(self):
        alg = HopCountAlgebra(40_000)    # codes overflow int16
        net = line(alg, 4, uniform_weight_factory(alg, 1, 2), seed=0)
        sched = RandomSchedule(net.n, seed=1, max_delay=3)
        start = random_state(alg, net.n, random.Random(3))
        with RoutingSession(net, EngineSpec("batched")) as s:
            a = s.delta(sched, start, max_steps=200)
            assert a.resolution.chosen == "batched"
            assert np.dtype(s._engines["batched"]._topo.dtype).itemsize > 2
        with RoutingSession(net, "incremental") as ref:
            b = ref.delta(sched, start, max_steps=200)
        assert a.converged and b.converged
        assert a.converged_at == b.converged_at
        assert a.state.equals(b.state, alg)

    def test_from_parts_shares_live_adjacency(self):
        net = _hop(6)
        with RoutingSession.from_parts(net.algebra, net.adjacency) as s:
            fp1 = s.sigma().state
            net.set_edge(0, 3, net.algebra.edge(1))
            net.set_edge(3, 0, net.algebra.edge(1))
            fp2 = s.sigma().state
        with RoutingSession(net) as ref:
            assert fp2.equals(ref.sigma().state, net.algebra)
        assert not fp1.equals(fp2, net.algebra)


# ----------------------------------------------------------------------
# 3. Run-report metadata
# ----------------------------------------------------------------------


class TestReportMetadata:
    def test_schedule_seed_version_constant(self):
        assert RandomSchedule.SCHEDULE_SEED_VERSION == 2

    def test_delta_report_records_seed_version(self):
        net = _hop(6)
        with RoutingSession(net) as s:
            seeded = s.delta(RandomSchedule(net.n, seed=1, max_delay=3),
                             max_steps=200)
            structured = s.delta(SynchronousSchedule(net.n), max_steps=120)
        assert seeded.schedule_seed_version == 2
        assert seeded.metadata["schedule_seed_version"] == 2
        assert structured.schedule_seed_version is None

    def test_grid_report_records_seed_version(self):
        net = _hop(6)
        start = RoutingState.identity(net.algebra, net.n)
        with RoutingSession(net) as s:
            grid = s.delta_grid(
                [(RandomSchedule(net.n, seed=2, max_delay=3), start)],
                max_steps=200)
            plain = s.delta_grid([(SynchronousSchedule(net.n), start)],
                                 max_steps=120)
        assert grid.schedule_seed_version == 2
        assert grid.metadata["schedule_seed_version"] == 2
        assert plain.schedule_seed_version is None

    def test_seed_version_unwraps_compiled(self):
        sched = CompiledSchedule(RandomSchedule(5, seed=0, max_delay=2), 50)
        assert schedule_seed_version([sched]) == 2
        assert schedule_seed_version([SynchronousSchedule(5)]) is None

    def test_sigma_report_measures_churn(self):
        from repro.analysis import measure_sync
        finite, obj = _hop(7), _shortest(7)
        for net in (finite, obj):
            with RoutingSession(net) as s:
                report = s.sigma()
            measured = measure_sync(net)
            assert report.churn == measured.changed_entries
            assert report.rounds == measured.rounds

    @pytest.mark.parametrize("spec", [
        EngineSpec("parallel", workers=2, strict=True),
        EngineSpec("remote", remote_workers=2, strict=True)],
        ids=["parallel", "remote"])
    def test_churn_is_measured_on_the_negotiated_rung(self, spec):
        """Churn is counted on the rung the session negotiated: no
        in-process vectorized engine is built behind the report, the
        remote report carries its wire stats and degraded log, and the
        count equals the naive rung's."""
        net = _hop(9)
        with RoutingSession(net, spec) as s:
            report = s.sigma()
            assert report.resolution.chosen == spec.engine
            assert set(s._engines) == {spec.engine}
        with RoutingSession(net, "naive") as ref_s:
            ref = ref_s.sigma()
        assert report.churn == ref.churn > 0
        assert report.rounds == ref.rounds
        assert report.state.equals(ref.state, net.algebra)
        if spec.engine == "remote":
            assert report.wire is not None and report.wire.rounds > 0
            assert report.degraded == ()

    def test_reports_carry_timing(self):
        net = _hop(6)
        with RoutingSession(net) as s:
            assert s.sigma().elapsed_s >= 0.0
            assert s.delta(SynchronousSchedule(net.n),
                           max_steps=60).elapsed_s >= 0.0

    @pytest.mark.parametrize("rung", ["vectorized", "parallel", "batched",
                                      "remote"])
    def test_strict_grid_with_unbounded_schedule(self, rung):
        """A strict grid trial whose schedule declares no staleness bound
        runs on every codes rung — they share one δ loop, whose ring is
        sized from the derived bound (the remote workers' ring too) —
        and matches the strict reference."""
        net = _hop(8)
        start = RoutingState.identity(net.algebra, net.n)
        sched = _UnboundedSchedule(net.n)
        spec = EngineSpec(rung, workers=2, remote_workers=2, strict=True)
        with RoutingSession(net, spec) as s:
            grid = s.delta_grid([(sched, start)], max_steps=100)
            ref = RoutingSession(net, "incremental").delta(
                sched, start, max_steps=100, strict=True)
            assert grid.all_converged and ref.converged
            assert grid.convergence_steps == [ref.converged_at]
            assert grid.distinct_fixed_points[0].equals(
                ref.state, net.algebra)
            assert grid.resolution.chosen == rung

    def test_churn_respects_pinned_object_engine(self):
        """Counting churn must not move a spec pinned to an object rung
        onto the vectorized fast path (the resolution would lie)."""
        net = _hop(7)
        with RoutingSession(net, EngineSpec("naive")) as s:
            report = s.sigma()
            assert report.resolution.chosen == "naive"
            assert "vectorized" not in s._engines
        with RoutingSession(net) as auto:
            fast = auto.sigma()
        assert fast.churn == report.churn   # both paths count the same

    def test_simulator_stability_resolution(self):
        net = _hop(6)
        with RoutingSession(net, EngineSpec("batched", workers=2)) as s:
            res = s.resolve("stability")
            assert res.chosen == "batched" and not res.skipped
            report = s.simulate(seed=1)
        ref = Simulator(net, seed=1).run()
        assert report.resolution.chosen == "batched"
        assert report.converged == ref.converged
        assert report.final_state.equals(ref.final_state, net.algebra)


# ----------------------------------------------------------------------
# 4. Every operation is the paper's operator, on every rung
# ----------------------------------------------------------------------


def _sigma_iterates(net, start, max_rounds=500):
    """``[X, σ(X), σ²(X), …]`` by the one-round object-model σ, up to
    and including the first repeat."""
    states = [start]
    for _ in range(max_rounds):
        states.append(sigma(net, states[-1]))
        if states[-1].equals(states[-2], net.algebra):
            return states
    raise AssertionError("σ did not reach a fixed point")


def _trajectory_churn(trajectory, alg):
    """Entry changes summed over consecutive trajectory states."""
    return sum(not alg.equal(a, b)
               for prev, cur in zip(trajectory, trajectory[1:])
               for prev_row, cur_row in zip(prev.rows, cur.rows)
               for a, b in zip(prev_row, cur_row))


class TestOperatorDefinitions:
    @pytest.mark.parametrize("build", [_hop, _shortest],
                             ids=["finite", "non-finite"])
    @pytest.mark.parametrize("rung", LADDER)
    def test_sigma_trajectory_is_the_sigma_iteration(self, build, rung):
        net = build()
        start = RoutingState.identity(net.algebra, net.n)
        expected = _sigma_iterates(net, start)
        with RoutingSession(net, EngineSpec(rung, workers=2,
                                            remote_workers=2)) as s:
            report = s.sigma(start, keep_trajectory=True)
        if build is _hop:
            # a finite cell runs on the rung it names: a silent
            # fallback would leave that rung untested
            assert report.resolution.chosen == rung
        assert report.converged
        assert report.rounds == len(expected) - 2
        assert report.state.equals(expected[-1], net.algebra)
        assert len(report.trajectory) == len(expected)
        for got, want in zip(report.trajectory, expected):
            assert got.equals(want, net.algebra)
        assert report.churn == _trajectory_churn(expected, net.algebra)

    @pytest.mark.parametrize("build", [_finite_chain, _bgplite],
                             ids=["finite", "non-finite"])
    @pytest.mark.parametrize("mode", ["default", "strict", "keep_history"])
    def test_delta_is_the_literal_recursion(self, build, mode):
        net = build()
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        sched = RandomSchedule(net.n, seed=7, max_delay=4)
        horizon = 300
        history = [start]
        for t in range(1, horizon + 1):
            history.append(delta_step_literal(net, sched, history, t))
        with RoutingSession(net) as s:
            report = s.delta(sched, start, max_steps=horizon,
                             strict=mode == "strict",
                             keep_history=mode == "keep_history")
        assert report.converged
        at = report.converged_at
        assert report.state.equals(history[report.steps], alg)
        # converged_at is the first step of the literal run's final
        # constant stretch, and that constant is σ-stable
        assert all(history[t].equals(history[at], alg)
                   for t in range(at, horizon + 1))
        assert at == 0 or not history[at - 1].equals(history[at], alg)
        assert is_stable(net, report.state)
        if mode == "default":
            assert report.history is None
            assert report.history_retained == sched.max_read_back() + 2
        else:
            assert report.history_retained == report.steps + 1
        if mode == "keep_history":
            assert len(report.history) == report.steps + 1
            for got, want in zip(report.history, history):
                assert got.equals(want, alg)

    @pytest.mark.parametrize("rung", LADDER)
    def test_grid_folds_its_single_runs(self, rung):
        net = _hop(8, seed=3)
        rng = random.Random(0)
        starts = [RoutingState.identity(net.algebra, net.n),
                  random_state(net.algebra, net.n, rng)]
        schedules = [SynchronousSchedule(net.n),
                     RandomSchedule(net.n, seed=2, max_delay=3)]
        trials = [(sched, start) for start in starts for sched in schedules]
        with RoutingSession(net, "naive") as ref:
            runs = [ref.delta(sched, start, max_steps=400)
                    for (sched, start) in trials]
        with RoutingSession(net, EngineSpec(rung, workers=2,
                                            remote_workers=2)) as s:
            grid = s.delta_grid(trials, max_steps=400)
        assert grid.resolution.chosen == rung
        assert grid.runs == len(trials)
        assert grid.all_converged == all(r.converged for r in runs)
        assert grid.convergence_steps == [r.converged_at for r in runs]
        assert len(grid.distinct_fixed_points) == 1
        for run in runs:
            assert run.state.equals(grid.distinct_fixed_points[0],
                                    net.algebra)

    def test_converges_runs_the_zoo_grid(self):
        net = _hop(7, seed=5)
        rng = random.Random(1)
        starts = [RoutingState.identity(net.algebra, net.n)]
        starts += [random_state(net.algebra, net.n, rng) for _ in range(2)]
        zoo = schedule_zoo(net.n, seeds=(1, 18))
        with RoutingSession(net) as s:
            report = s.converges(n_starts=2, seed=1, max_steps=400)
            grid = s.delta_grid(
                [(sched, start) for start in starts for sched in zoo],
                max_steps=400)
        assert report.runs == grid.runs == len(starts) * len(zoo)
        assert report.grid.all_converged == grid.all_converged
        assert report.grid.convergence_steps == grid.convergence_steps
        assert report.absolute == grid.absolute

    def test_simulate_matches_the_object_model_simulator(self):
        net = _hop(6, seed=8)
        cfg = LinkConfig(min_delay=0.2, max_delay=2.0, loss=0.1,
                         duplicate=0.05)
        plain = Simulator(net, seed=4, link_config=cfg,
                          refresh_interval=5.0, quiet_period=20.0).run()
        with RoutingSession(net) as s:
            report = s.simulate(seed=4, link_config=cfg,
                                refresh_interval=5.0, quiet_period=20.0)
        assert report.resolution.chosen != "incremental"
        assert report.converged == plain.converged
        assert report.final_state.equals(plain.final_state, net.algebra)
        assert report.stats.as_dict() == plain.stats.as_dict()
        assert report.convergence_time == plain.convergence_time
