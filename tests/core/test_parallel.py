"""Parallel-engine specifics: sharding, fallback ladder, and cleanup.

The observational-identity contract lives in the shared oracle
(``test_engine_equivalence.py``, which covers ``engine="parallel"``
lockstep σ, trajectories, churn, fixed points and δ-vs-strict across
the algebra×topology matrix).  The pool supplies one σ round to the
shared σ loop (``iterate_sigma_vectorized``) — the rung's δ is the
inherited compiled step, whose staleness guard ``test_asynchronous.py``
covers.  This module covers what is unique to the process pool:

* worker/shared-memory lifecycle — segments and processes must be
  released on ``close()``, on garbage collection, when an exception
  escapes a run in a session that owns the pool, and when a worker
  fails: the failing call raises a typed ``RuntimeError`` (never a raw
  ``BrokenPipeError``), and the next call starts a new pool;
* topology-mutation invalidation: a shared engine must republish its
  edge-table snapshot to the workers when ``adjacency.version`` moves;
* the fallback ladder (the resolver's worker sizing) and the
  direct-construction error contract.

All pools are built with explicit tiny worker counts so the suite runs
(and actually exercises the pool) on single-CPU CI hosts.
"""

import gc
import multiprocessing
import os
import random
import signal

import pytest

from repro.algebras import FiniteLevelAlgebra, HopCountAlgebra, \
    ShortestPathsAlgebra
from repro.core import (
    ParallelVectorizedEngine,
    RandomSchedule,
    RoutingState,
    UnsupportedAlgebraError,
    iterate_sigma_vectorized,
    resolve_engine,
    supports_parallel,
)
from repro.core import parallel as parallel_mod
from repro.session import EngineSpec, RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory

pytestmark = [
    pytest.mark.parallel,
    pytest.mark.skipif(not supports_parallel(HopCountAlgebra(4)),
                       reason="no multiprocessing shared memory here"),
]


def _net(n=14, seed=1, bound=16):
    alg = HopCountAlgebra(bound)
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


def _handles(engine):
    """The pool's segment names and worker pids, read while it is up
    (a reaped worker's process object is closed)."""
    return ([seg.name for seg in engine._res.segments],
            [proc.pid for proc in engine._res.procs])


def _assert_released(names, pids):
    from multiprocessing import shared_memory

    for name in names:
        with pytest.raises(FileNotFoundError):
            seg = shared_memory.SharedMemory(name=name)
            seg.close()                 # pragma: no cover - leak witness
    live = {proc.pid for proc in multiprocessing.active_children()}
    assert not live.intersection(pids)


def _assert_pool_torn_down(eng, names, pids):
    """A failure released the pool, not the engine: no handle listed,
    every segment unlinked, no worker left running."""
    assert not eng.closed
    assert (eng._res.segments, eng._res.procs, eng._res.conns) == \
        ([], [], [])
    _assert_released(names, pids)


class TestLifecycle:
    def test_close_releases_everything_and_is_idempotent(self):
        net = _net()
        eng = ParallelVectorizedEngine(net, workers=3)
        start = RoutingState.identity(net.algebra, net.n)
        iterate_sigma_vectorized(net, start, engine=eng)
        names, pids = _handles(eng)
        assert names and pids
        eng.close()
        eng.close()                      # second close must be a no-op
        assert eng.closed
        _assert_released(names, pids)
        with pytest.raises(RuntimeError):
            # a closed engine refuses to run
            iterate_sigma_vectorized(net, start, engine=eng)

    def test_context_manager(self):
        net = _net()
        with ParallelVectorizedEngine(net, workers=2) as eng:
            res = iterate_sigma_vectorized(
                net, RoutingState.identity(net.algebra, net.n), engine=eng)
            names, pids = _handles(eng)
        assert res.converged
        _assert_released(names, pids)

    def test_finalizer_backstop_on_garbage_collection(self):
        net = _net()
        eng = ParallelVectorizedEngine(net, workers=2)
        iterate_sigma_vectorized(
            net, RoutingState.identity(net.algebra, net.n), engine=eng)
        names, pids = _handles(eng)
        del eng
        gc.collect()
        _assert_released(names, pids)

    def test_driver_cleans_up_when_sigma_run_raises(self, monkeypatch):
        """The regression: an exception escaping a run on a
        session-owned pool must not leak workers or segments."""
        created = []
        original = parallel_mod.ParallelVectorizedEngine

        class Recording(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(parallel_mod, "ParallelVectorizedEngine",
                            Recording)
        net = _net()
        bad = RoutingState.filled(10 ** 9, net.n)   # outside the carrier
        with RoutingSession(net, EngineSpec("parallel", workers=2)) as s:
            with pytest.raises(UnsupportedAlgebraError):
                s.sigma(bad)
        assert len(created) == 1
        assert created[0].closed
        assert created[0]._res.procs == []

    def test_worker_failure_is_relayed_and_pool_closed(self):
        """A failure inside a worker command must surface as a raised
        exception on the master (not a silent worker death) and leave
        no pool behind; the next call starts a new one."""
        net = _net(10, seed=6)
        start = RoutingState.identity(net.algebra, net.n)
        with ParallelVectorizedEngine(net, workers=2) as eng:
            eng.refresh()
            eng._ensure_pool()
            names, pids = _handles(eng)
            # a table republish whose meta lacks every snapshot field
            eng._broadcast(("reload", {}))
            with pytest.raises(RuntimeError, match="failed on 'reload'"):
                eng._collect()
            _assert_pool_torn_down(eng, names, pids)
            res = iterate_sigma_vectorized(net, start, engine=eng)
        ref = RoutingSession(net, "naive").sigma(start)
        assert (res.converged, res.rounds) == (ref.converged, ref.rounds)
        assert res.state.equals(ref.state, net.algebra)

    def test_killed_worker_is_typed_then_the_pool_restarts(self):
        """A SIGKILLed worker: the next σ raises one typed
        ``RuntimeError`` naming it, and the call after it runs on a new
        pool, bit-identical to naive."""
        net = _net(16, seed=2)
        start = RoutingState.identity(net.algebra, net.n)
        ref = RoutingSession(net, "naive").sigma(start)
        with RoutingSession(net, EngineSpec("parallel", workers=2)) as s:
            s.sigma(start)
            eng = s._engines["parallel"]
            names, pids = _handles(eng)
            victim = eng._res.procs[0]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(RuntimeError,
                               match=f"worker {victim.name} is gone"):
                s.sigma(start)
            _assert_pool_torn_down(eng, names, pids)
            res = s.sigma(start)
            assert s._engines["parallel"] is eng
        assert (res.converged, res.rounds) == (ref.converged, ref.rounds)
        assert res.state.equals(ref.state, net.algebra)

    def test_silent_worker_times_out_and_is_reaped(self, monkeypatch):
        """A stopped worker never replies: the round times out with a
        typed error, and the teardown kills it (SIGTERM alone cannot
        end a stopped process); the next call starts a new pool."""
        net = _net(12, seed=1)
        start = RoutingState.identity(net.algebra, net.n)
        monkeypatch.setattr(parallel_mod, "_REPLY_TIMEOUT", 0.2)
        with ParallelVectorizedEngine(net, workers=2) as eng:
            iterate_sigma_vectorized(net, start, engine=eng)
            names, pids = _handles(eng)
            os.kill(pids[0], signal.SIGSTOP)
            with pytest.raises(RuntimeError,
                               match=r"did not reply .*\(alive=True\)"):
                iterate_sigma_vectorized(net, start, engine=eng)
            _assert_pool_torn_down(eng, names, pids)
            res = iterate_sigma_vectorized(net, start, engine=eng)
        ref = RoutingSession(net, "naive").sigma(start)
        assert (res.converged, res.rounds) == (ref.converged, ref.rounds)
        assert res.state.equals(ref.state, net.algebra)

    def test_shared_engine_survives_driver_calls(self):
        """Engines passed in by the caller are *not* closed by the σ
        loop."""
        net = _net()
        start = RoutingState.identity(net.algebra, net.n)
        with ParallelVectorizedEngine(net, workers=2) as eng:
            iterate_sigma_vectorized(net, start, engine=eng)
            assert not eng.closed


class TestInvalidation:
    def test_set_edge_republishes_tables(self):
        net = _net(12, seed=3)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        with ParallelVectorizedEngine(net, workers=3) as eng:
            fp = iterate_sigma_vectorized(net, start, engine=eng).state
            net.set_edge(0, net.n - 1, alg.edge(1))
            net.set_edge(net.n - 1, 0, alg.edge(1))
            res = iterate_sigma_vectorized(net, fp, engine=eng)
            ref = RoutingSession(net, "naive").sigma(fp)
            assert res.rounds == ref.rounds
            assert res.state.equals(ref.state, alg)

    def test_remove_edge_republishes_tables(self):
        net = _net(12, seed=4)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        with ParallelVectorizedEngine(net, workers=2) as eng:
            fp = iterate_sigma_vectorized(net, start, engine=eng).state
            removed = next(iter(net.present_edges()))
            net.remove_edge(*removed)
            res = iterate_sigma_vectorized(net, fp, engine=eng)
            ref = RoutingSession(net, "naive").sigma(fp)
            assert res.rounds == ref.rounds
            assert res.state.equals(ref.state, alg)

    def test_mid_delta_topology_change_between_runs(self):
        net = _net(10, seed=5)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        sched = RandomSchedule(net.n, seed=6, max_delay=4)
        with RoutingSession(net, EngineSpec("parallel", workers=2)) as s:
            first = s.delta(sched, start, max_steps=400)
            net.set_edge(1, net.n - 1, alg.edge(2))
            second = s.delta(sched, first.state, max_steps=400)
            assert second.resolution.chosen == "parallel"
            ref = RoutingSession(net, "incremental").delta(
                sched, first.state, max_steps=400, strict=True)
            assert second.converged == ref.converged
            assert second.converged_at == ref.converged_at
            assert second.state.equals(ref.state, alg)


class TestFallbackLadder:
    def test_parallel_workers_resolution(self):
        net = _net(12)

        def sized(n_net, workers):
            return resolve_engine(n_net, "parallel", "sigma", workers=workers)

        serial = sized(net, 1)                            # explicit serial
        assert serial.chosen == "vectorized"
        assert serial.reason_codes() == [("parallel", "workers-lt-2")]
        assert sized(net, 4).chosen == "parallel"        # explicit pool
        assert sized(net, 4).workers == 4
        assert sized(net, 100).workers == net.n          # clamped to n
        sp = ShortestPathsAlgebra()
        infinite = erdos_renyi(sp, 12, 0.3,
                               uniform_weight_factory(sp, 1, 5), seed=1)
        assert sized(infinite, 4).reason_codes()[0] == \
            ("parallel", "no-finite-encoding")            # no finite encoding

    def test_auto_mode_declines_tiny_problems(self):
        net = _net(parallel_mod.PARALLEL_MIN_N - 1)
        auto = resolve_engine(net, "parallel", "sigma")
        if (parallel_mod.os.cpu_count() or 1) >= 2:
            assert auto.reason_codes() == [("parallel", "below-min-n")]
            assert auto.workers is None
        big_enough = resolve_engine(net, "parallel", "sigma", workers=2)
        assert big_enough.chosen == "parallel"
        assert big_enough.workers == 2   # explicit request still honoured

    def test_selector_falls_back_silently(self):
        sp = ShortestPathsAlgebra()
        net = erdos_renyi(sp, 10, 0.3, uniform_weight_factory(sp, 1, 5),
                          seed=2)
        start = RoutingState.identity(sp, net.n)
        with RoutingSession(net, EngineSpec("parallel", workers=4)) as s:
            res = s.sigma(start)
        ref = RoutingSession(net, "naive").sigma(start)
        assert res.rounds == ref.rounds
        assert res.state.equals(ref.state, sp)

    def test_direct_construction_raises_for_nonfinite(self):
        sp = ShortestPathsAlgebra()
        net = erdos_renyi(sp, 8, 0.3, uniform_weight_factory(sp, 1, 5),
                          seed=3)
        with pytest.raises(UnsupportedAlgebraError):
            ParallelVectorizedEngine(net, workers=2)

    def test_direct_construction_rejects_single_worker(self):
        with pytest.raises(UnsupportedAlgebraError):
            ParallelVectorizedEngine(_net(8), workers=1)

    def test_delta_keep_history_falls_to_incremental(self):
        net = _net(10, seed=7)
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=8, max_delay=3)
        with RoutingSession(net, EngineSpec("parallel", workers=2)) as s:
            par = s.delta(sched, start, max_steps=300, keep_history=True)
        assert par.resolution.chosen == "incremental"
        assert par.resolution.reason_codes() == [
            ("parallel", "keep-history"), ("vectorized", "keep-history")]
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=300, strict=True, keep_history=True)
        assert par.history is not None and len(par.history) == \
            len(ref.history)
        for a, b in zip(par.history, ref.history):
            assert a.equals(b, net.algebra)


class TestSemantics:
    def test_sigma_and_stability_match_reference_on_garbage(self):
        net = _net(11, seed=9)
        alg = net.algebra
        rng = random.Random(13)
        from repro.core import sigma as sigma_ref

        with ParallelVectorizedEngine(net, workers=3) as eng:
            state = RoutingState.from_function(
                lambda i, j: alg.sample_route(rng), net.n)
            for _ in range(6):
                nxt = sigma_ref(net, state)
                assert eng.sigma(state).equals(nxt, alg)
                assert eng.is_stable(state) == state.equals(nxt, alg)
                state = nxt
            fixed = RoutingSession(net, "naive").sigma(state).state
            assert eng.is_stable(fixed)

    def test_block_split_covers_all_columns(self):
        blocks = parallel_mod._split_columns(11, 3)
        assert blocks[0][0] == 0 and blocks[-1][1] == 11
        for (a, b), (c, d) in zip(blocks, blocks[1:]):
            assert b == c and b > a
        assert sum(hi - lo for lo, hi in blocks) == 11

    def test_finite_level_algebra_on_pool(self):
        alg = FiniteLevelAlgebra(7)
        rng_net = erdos_renyi(alg, 13, 0.3,
                              lambda rng, _i, _j: alg.random_strict_edge(rng),
                              seed=11)
        start = RoutingState.identity(alg, rng_net.n)
        with RoutingSession(rng_net, EngineSpec("parallel", workers=3)) as s:
            res = s.sigma(start)
        assert res.resolution.chosen == "parallel"
        ref = RoutingSession(rng_net, "naive").sigma(start)
        assert res.converged == ref.converged
        assert res.rounds == ref.rounds
        assert res.state.equals(ref.state, alg)
