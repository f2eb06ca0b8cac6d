"""Batched-engine specifics: trial stacking, dropout, and the grid driver.

The observational-identity contract lives in the shared oracle
(``test_engine_equivalence.py``, which covers batched lockstep σ, a
B = 1 ``delta`` on a session pinned to the batched rung and an
all-schedules ``delta_grid``).  This module covers what is unique to
multi-trial stacking:

* per-trial convergence masking — trials converging at very different
  steps must each report exactly their solo result while the rest of
  the batch keeps running;
* the grid driver's report parity with the per-trial experiment loop
  (trial order, distinct-fixed-point ordering, stacks split by the
  ring budget);
* the batch-axis history ring: per-trial staleness windows, derived
  bounds for schedules that declare none, loud failure for lying ones;
* topology invalidation between grid runs on a shared engine;
* the fallback ladder for non-finite algebras;
* the churn measurement on codes (``measure_sync``) against the object
  trajectory.

σ on this rung is the vectorized rung's round, so the oracle's σ
checks cover it.
"""

import random

import pytest

from repro.algebras import HopCountAlgebra, ShortestPathsAlgebra
from repro.analysis import measure_sync
from repro.core import (
    BatchedVectorizedEngine,
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    RoutingState,
    Schedule,
    SynchronousSchedule,
    UnsupportedAlgebraError,
    VectorizedEngine,
    random_state,
    schedule_zoo,
    supports_vectorized,
)
from repro.core import vectorized
from repro.core.state import Network
from repro.session import RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory

np = pytest.importorskip("numpy")


def _net(n=12, seed=1, bound=16):
    alg = HopCountAlgebra(bound)
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 3),
                      seed=seed)


def _starts(net, k=2, seed=5):
    rng = random.Random(seed)
    return [RoutingState.identity(net.algebra, net.n)] + \
        [random_state(net.algebra, net.n, rng) for _ in range(k - 1)]


class TestTrialMasking:
    def test_mixed_speed_trials_each_match_solo_runs(self):
        """Round-robin converges an order of magnitude later than the
        synchronous schedule; stacked together each must still report
        its exact solo (converged_at, state)."""
        net = _net(10, seed=3)
        start = RoutingState.identity(net.algebra, net.n)
        scheds = [SynchronousSchedule(net.n), RoundRobinSchedule(net.n),
                  FixedDelaySchedule(net.n, delay=5),
                  RandomSchedule(net.n, seed=9, activation_prob=0.2,
                                 max_delay=4)]
        eng = BatchedVectorizedEngine(net)
        grid = eng.delta_grid([(s, start) for s in scheds], max_steps=900)
        steps = set()
        for sched, res in zip(scheds, grid):
            ref = RoutingSession(net, "incremental").delta(
                sched, start, max_steps=900, strict=True)
            assert res.converged and ref.converged
            assert res.converged_at == ref.converged_at, repr(sched)
            assert res.state.equals(ref.state, net.algebra), repr(sched)
            steps.add(res.steps)
        assert len(steps) > 1, "trials should drop out at different steps"

    def test_non_converging_trial_does_not_poison_the_batch(self):
        """A trial capped below its convergence horizon reports
        converged=False while its batchmates still converge."""
        net = _net(10, seed=4)
        start = RoutingState.identity(net.algebra, net.n)
        slow = RoundRobinSchedule(net.n)
        fast = SynchronousSchedule(net.n)
        ref_slow = RoutingSession(net, "incremental").delta(
            slow, start, max_steps=25, strict=True)
        eng = BatchedVectorizedEngine(net)
        res_fast, res_slow = eng.delta_grid(
            [(fast, start), (slow, start)], max_steps=25)
        assert res_slow.converged == ref_slow.converged
        assert res_slow.state.equals(ref_slow.state, net.algebra)
        ref_fast = RoutingSession(net, "incremental").delta(
            fast, start, max_steps=25, strict=True)
        assert res_fast.converged == ref_fast.converged
        assert res_fast.converged_at == ref_fast.converged_at

    def test_garbage_starts_per_trial(self):
        net = _net(9, seed=6)
        rng = random.Random(17)
        starts = [random_state(net.algebra, net.n, rng) for _ in range(3)]
        sched = RandomSchedule(net.n, seed=2, max_delay=3)
        eng = BatchedVectorizedEngine(net)
        grid = eng.delta_grid([(sched, s) for s in starts], max_steps=500)
        for s, res in zip(starts, grid):
            ref = RoutingSession(net, "incremental").delta(
                sched, s, max_steps=500, strict=True)
            assert res.converged == ref.converged
            assert res.converged_at == ref.converged_at
            assert res.state.equals(ref.state, net.algebra)


class TestGridDriver:
    def test_report_parity_with_per_trial_loop(self):
        net = _net(11, seed=7)
        starts = _starts(net, 2)
        scheds = schedule_zoo(net.n)
        trials = [(sched, start) for start in starts for sched in scheds]
        batched = RoutingSession(net, "batched").delta_grid(
            trials, max_steps=700)
        loop = RoutingSession(net, "incremental").delta_grid(
            trials, max_steps=700)
        assert batched.resolution.chosen == "batched"
        assert batched.runs == loop.runs
        assert batched.all_converged == loop.all_converged
        assert batched.convergence_steps == loop.convergence_steps
        assert len(batched.distinct_fixed_points) == \
            len(loop.distinct_fixed_points)
        for a, b in zip(batched.distinct_fixed_points,
                        loop.distinct_fixed_points):
            assert a.equals(b, net.algebra)

    def test_chunked_batches_match_unchunked(self, monkeypatch):
        """A grid whose history ring would pass the ring budget runs
        as consecutive stacks, each within the budget, and every trial
        ends exactly as in the one-stack grid."""
        net = _net(9, seed=8)
        starts = _starts(net, 2)
        scheds = schedule_zoo(net.n)[:5]
        trials = [(sched, start) for start in starts for sched in scheds]
        rings = []
        begin = VectorizedEngine._delta_begin

        def recording_begin(eng, *args):
            run, t, unchanged = begin(eng, *args)
            rings.append(run[0])
            return run, t, unchanged

        monkeypatch.setattr(VectorizedEngine, "_delta_begin",
                            recording_begin)
        with RoutingSession(net, "batched") as s:
            whole = s.delta_grid(trials, max_steps=500, keep_results=True)
            (ring,) = rings
            assert ring.shape[1] == len(trials)
            budget = 3 * ring.nbytes // len(trials)
            monkeypatch.setattr(vectorized, "RING_BUDGET", budget)
            rings.clear()
            chunked = s.delta_grid(trials, max_steps=500, keep_results=True)
        assert [r.shape[1] for r in rings] == [3, 3, 3, 1]
        assert all(r.nbytes <= budget for r in rings)
        assert whole.convergence_steps == chunked.convergence_steps
        for a, b in zip(whole.results, chunked.results):
            assert (a.converged, a.steps, a.converged_at,
                    a.history_retained) == \
                (b.converged, b.steps, b.converged_at, b.history_retained)
            assert a.state.equals(b.state, net.algebra)

    def test_experiment_selector_routes_batched(self):
        net = _net(10, seed=9)
        starts = _starts(net, 2)
        scheds = schedule_zoo(net.n)[:4]
        via_selector = RoutingSession(net, "batched").delta_grid(
            [(sched, start) for start in starts for sched in scheds],
            max_steps=500)
        ref = RoutingSession(net, "incremental").delta_grid(
            [(sched, start) for start in starts for sched in scheds],
            max_steps=500)
        assert via_selector.convergence_steps == ref.convergence_steps
        assert via_selector.absolute == ref.absolute

    def test_run_absolute_convergence_accepts_batched(self):
        net = _net(10, seed=10)
        rep = RoutingSession(net, "batched").converges(
            n_starts=2, seed=1, max_steps=600).grid
        ref = RoutingSession(net, "incremental").converges(
            n_starts=2, seed=1, max_steps=600).grid
        assert rep.convergence_steps == ref.convergence_steps
        assert rep.absolute == ref.absolute

    def test_nonfinite_algebra_falls_back_silently(self):
        sp = ShortestPathsAlgebra()
        net = erdos_renyi(sp, 8, 0.3, uniform_weight_factory(sp, 1, 5),
                          seed=2)
        rep = RoutingSession(net, "batched").converges(
            n_starts=1, seed=0, max_steps=500).grid
        ref = RoutingSession(net, "incremental").converges(
            n_starts=1, seed=0, max_steps=500).grid
        assert rep.convergence_steps == ref.convergence_steps
        assert rep.absolute == ref.absolute

    def test_empty_grid(self):
        eng = BatchedVectorizedEngine(_net(6))
        assert eng.delta_grid([]) == []


class TestHistoryRing:
    def test_lying_schedule_raises_lookup_error(self, monkeypatch):
        class Lying(Schedule):
            def alpha(self, t):
                return frozenset(range(self.n))

            def beta(self, t, i, j):
                return max(0, t - 6)     # reads 6 back...

            def max_read_back(self):
                return 2                 # ...but declares 2

        net = _net(8, seed=11)
        start = RoutingState.identity(net.algebra, net.n)
        with pytest.raises(LookupError):
            BatchedVectorizedEngine(net).delta_grid([(Lying(net.n), start)],
                                                    max_steps=60)
        # a grid split into stacks of one names the grid's trial
        monkeypatch.setattr(vectorized, "RING_BUDGET", 1)
        sync = SynchronousSchedule(net.n)
        with pytest.raises(LookupError, match="outside trial 2's"):
            BatchedVectorizedEngine(net).delta_grid(
                [(sync, start), (sync, start), (Lying(net.n), start)],
                max_steps=60)

    def test_reads_slightly_past_declaration_match_serial(self):
        """BoundedHistory tolerates reads up to (declared bound + 2);
        the batch ring must tolerate — and compute identically on —
        exactly the same reads."""

        class Overreaching(Schedule):
            def alpha(self, t):
                return frozenset(range(self.n)) if t % 2 \
                    else frozenset({t % self.n})

            def beta(self, t, i, j):
                return max(0, t - 4)     # 2 past the declared bound...

            def max_read_back(self):
                return 2                 # ...but within the +2 window

        net = _net(9, seed=12)
        start = RoutingState.identity(net.algebra, net.n)
        ref = RoutingSession(net, "incremental").delta(
            Overreaching(net.n), start, max_steps=200)
        res = BatchedVectorizedEngine(net).delta_grid(
            [(Overreaching(net.n), start)], max_steps=200)[0]
        assert res.converged == ref.converged
        assert res.converged_at == ref.converged_at
        assert res.state.equals(ref.state, net.algebra)

    def test_undeclared_bound_runs_on_derived_ring(self):
        """A schedule declaring no staleness bound forces the serial
        engines to keep the full history; the batched engine sizes the
        ring from the bound its compiled reads actually attain and must
        still agree with strict."""

        class Undeclared(RandomSchedule):
            def max_read_back(self):
                return None

        net = _net(9, seed=13)
        start = RoutingState.identity(net.algebra, net.n)
        res = BatchedVectorizedEngine(net).delta_grid(
            [(Undeclared(net.n, seed=4, max_delay=5), start)],
            max_steps=400)[0]
        ref = RoutingSession(net, "incremental").delta(
            Undeclared(net.n, seed=4, max_delay=5), start, max_steps=400,
            strict=True)
        assert res.converged == ref.converged
        assert res.converged_at == ref.converged_at
        assert res.state.equals(ref.state, net.algebra)

    def test_isolated_nodes_get_invalid_rows(self):
        alg = HopCountAlgebra(8)
        net = Network(alg, 4, name="mostly-isolated")
        net.set_edge(0, 1, alg.edge(1))
        net.set_edge(1, 0, alg.edge(1))
        rng = random.Random(3)
        start = random_state(alg, 4, rng)
        sched = SynchronousSchedule(4)
        res = BatchedVectorizedEngine(net).delta_grid([(sched, start)],
                                                      max_steps=100)[0]
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=100, strict=True)
        assert res.converged == ref.converged
        assert res.state.equals(ref.state, alg)


class TestEngineLifecycle:
    def test_topology_change_between_grid_runs(self):
        net = _net(10, seed=14)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        sched = RandomSchedule(net.n, seed=6, max_delay=4)
        eng = BatchedVectorizedEngine(net)
        first = eng.delta_grid([(sched, start)], max_steps=400)[0]
        net.set_edge(0, net.n - 1, alg.edge(2))
        net.set_edge(net.n - 1, 0, alg.edge(2))
        second = eng.delta_grid([(sched, first.state)], max_steps=400)[0]
        ref = RoutingSession(net, "incremental").delta(
            sched, first.state, max_steps=400, strict=True)
        assert second.converged == ref.converged
        assert second.converged_at == ref.converged_at
        assert second.state.equals(ref.state, alg)

    def test_direct_construction_raises_for_nonfinite(self):
        sp = ShortestPathsAlgebra()
        net = erdos_renyi(sp, 8, 0.3, uniform_weight_factory(sp, 1, 5),
                          seed=3)
        with pytest.raises(UnsupportedAlgebraError):
            BatchedVectorizedEngine(net)

    def test_compiled_schedule_reused_across_networks(self):
        """One compiled schedule driven against two different edge
        layouts must answer per layout (the β views are a property of
        the caller's network, not of the schedule)."""
        from repro.core import CompiledSchedule

        sched = RandomSchedule(10, seed=23, max_delay=4)
        comp = CompiledSchedule(sched, horizon=500)
        for seed in (31, 32):
            net = _net(10, seed=seed)
            start = RoutingState.identity(net.algebra, net.n)
            res = BatchedVectorizedEngine(net).delta_grid(
                [(comp, start)], max_steps=500)[0]
            ref = RoutingSession(net, "incremental").delta(
                sched, start, max_steps=500, strict=True)
            assert res.converged == ref.converged, seed
            assert res.converged_at == ref.converged_at, seed
            assert res.state.equals(ref.state, net.algebra), seed


class TestChurnVectorization:
    def test_measure_sync_matches_object_path_on_finite_algebra(self):
        net = _net(10, seed=16)
        assert supports_vectorized(net.algebra)
        fast = measure_sync(net)
        # the object path, forced: recompute churn from the trajectory
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        result = RoutingSession(net, "incremental").sigma(
            start, keep_trajectory=True)
        churn = 0
        for prev, cur in zip(result.trajectory, result.trajectory[1:]):
            for i in range(net.n):
                for j in range(net.n):
                    if not alg.equal(prev.get(i, j), cur.get(i, j)):
                        churn += 1
        assert fast.converged == result.converged
        assert fast.rounds == result.rounds
        assert fast.changed_entries == churn

    def test_measure_sync_object_fallback_for_nonfinite(self):
        sp = ShortestPathsAlgebra()
        net = erdos_renyi(sp, 8, 0.3, uniform_weight_factory(sp, 1, 5),
                          seed=4)
        m = measure_sync(net)
        assert m.converged and m.changed_entries > 0
