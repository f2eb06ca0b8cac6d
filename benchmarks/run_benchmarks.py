#!/usr/bin/env python
"""Old-vs-new engine benchmark harness → ``BENCH_core.json``.

Times the incremental delta-propagation engine (PR 1) against the frozen
seed implementations in :mod:`naive_engine` on chain / ring / grid /
sparse-random topologies across several algebras, and the ring-buffer
``RoutingSession.delta`` vs the unbounded-history seed run.  Finite algebras
additionally get a **vectorized** column (PR 2): the int-encoded numpy
engine of :mod:`repro.core.vectorized`, timed against both baselines on
the same cases — and a **parallel worker-scaling** column (PR 3): the
shared-memory column-sharded pool of :mod:`repro.core.parallel` timed
against the vectorized engine at several worker counts on n ≥ 400
finite cases (on single-core runners the scaling sweep is skipped
cleanly and only engine agreement is recorded).  PR 4 adds a
**batched-grid** column — the n=100 hop-count absolute-convergence
grid (≥ 16 trials) run as one ``(B, n, n)`` tensor workload
(:class:`repro.core.vectorized.BatchedVectorizedEngine`) vs a loop of
single δ runs on the vectorized rung, every trial cross-checked — and
a **windowed-IPC** column recording how many δ schedule steps one
remote worker command carries at the default window.  PR 6 adds a
**remote** column: the TCP-sharded coordinator of
:mod:`repro.core.remote` run against 2 loopback worker subprocesses,
cross-checked bit-for-bit against the vectorized engine and audited
for wire efficiency — bytes/round, commands/round, and the
compression ratio of the delta-encoded quantized column updates vs a
naive full-column transfer (the committed gnp-400 headline is held to
the ``remote.compression`` gate).  Every
comparison also verifies that all engines reach fixed points that are
``equal`` under the algebra — a benchmark row that disagrees is
reported and fails the harness.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # seconds

The committed ``BENCH_core.json`` is produced by a full run.  Every
acceptance floor and ceiling is one row of :data:`GATES`, checked by
one loop (:func:`check_gates`): a ``--quick`` run holds the committed
baseline to its gates and itself to the run gates (correctness on every
row, catastrophic-regression floors), the tier-1 tests hold the
committed file to them, and the CI steps call :func:`ci_gate` for one
column.  Tier-1 runs only the ``scale="smoke"`` suite (see
``tests/core/test_benchmark_harness.py`` and the ``perfbench`` marker in
``pytest.ini``).
"""

from __future__ import annotations

import argparse
import json
import operator
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

if __name__ == "__main__":   # allow running without installing the package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.algebras import (
    BGPLiteAlgebra,
    BoundedStratifiedAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
    WidestPathsAlgebra,
)
import os

from repro.session import EngineSpec, RoutingSession
from repro.core import (
    BatchedVectorizedEngine,
    FixedDelaySchedule,
    ParallelVectorizedEngine,
    RandomSchedule,
    RoutingState,
    SynchronousSchedule,
    VectorizedEngine,
    iterate_sigma_vectorized,
    random_state,
    schedule_zoo,
    supports_parallel,
    supports_vectorized,
)
from repro.core.remote import RemoteVectorizedEngine
from repro.core.vectorized import sigma_block_round
from repro.topologies import (
    bgp_policy_factory,
    erdos_renyi,
    grid,
    line,
    ring,
    uniform_weight_factory,
)

import naive_engine


def _spin(seconds: float) -> int:
    """Busy-loop for ``seconds`` of wall clock (parallelism probe work)."""
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < seconds:
        n += 1
    return n


_USABLE_CPUS: Optional[int] = None


def usable_cpus() -> int:
    """Parallelism actually available to this process, measured.

    ``os.cpu_count()`` (and sched_getaffinity) report the *visible* CPU
    mask, which containers routinely clamp to 1 while the hypervisor
    still schedules several vCPUs — exactly the environment where the
    parallel column would otherwise be skipped despite real speedup
    being available.  So when the reported count is low, probe
    empirically: run 4 concurrent busy loops on a pre-warmed process
    pool and compare wall time against serial burn time.  Cached after
    the first call (~1 s); any probe failure falls back to the
    reported count, so a genuinely single-core runner still skips the
    scaling sweep cleanly.
    """
    global _USABLE_CPUS
    if _USABLE_CPUS is not None:
        return _USABLE_CPUS
    reported = os.cpu_count() or 1
    width = 4
    if reported >= width:
        _USABLE_CPUS = reported
        return reported
    try:
        import multiprocessing as mp

        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        spin = 0.25
        with ctx.Pool(width) as pool:
            pool.map(_spin, [0.02] * width)      # warm the pool first
            t0 = time.perf_counter()
            pool.map(_spin, [spin] * width)
            wall = time.perf_counter() - t0
        measured = int(round(spin * width / wall))
        _USABLE_CPUS = max(reported, min(width, measured))
    except Exception:                            # pragma: no cover
        _USABLE_CPUS = reported
    return _USABLE_CPUS


def sigma_kernel_ceiling(net, repeats: int = 3) -> Optional[float]:
    """Measured hardware ceiling for parallelising the σ kernel on
    ``net``: serial wall time over a naive fork-level column split.

    The σ gather/min-reduce is memory-bound, so hosts that schedule 4
    CPU-bound processes perfectly can still cap gather scaling near 1×
    (shared memory bandwidth).  The parallel engine cannot be expected
    to beat what the hardware gives *any* process-level split of the
    identical kernel, so the regression gate holds it to this measured
    ceiling when the ceiling is below the aspirational 2× floor.
    Returns ``None`` when the probe cannot run (no fork); callers then
    fall back to CPU-count-based arming.
    """
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        return None                      # pragma: no cover - non-posix
    eng = VectorizedEngine(net)
    C = eng.encode_state(RoutingState.identity(net.algebra, net.n))
    import numpy as np

    def run_cols(lo, hi):
        # the pool worker's round: the shared column-block σ round on
        # the block [lo, hi), in place (each forked process writes its
        # own copy-on-write C)
        cols = np.arange(hi - lo)
        for _ in range(repeats):
            sigma_block_round(eng._topo, C[:, lo:hi], cols, lo,
                              eng.trivial_code, eng.invalid_code)

    t0 = time.perf_counter()
    run_cols(0, net.n)
    serial = time.perf_counter() - t0
    width = min(4, max(2, usable_cpus()))
    bounds = [round(net.n * i / width) for i in range(width + 1)]
    ctx = mp.get_context("fork")
    procs = [ctx.Process(target=run_cols, args=(lo, hi))
             for lo, hi in zip(bounds, bounds[1:])]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    wall = time.perf_counter() - t0
    return round(serial / wall, 2) if wall > 0 else None


def parallel_floor(meta: Dict) -> Optional[float]:
    """The speedup floor the parallel headline is held to, given the
    baseline host's measured capabilities (the ``parallel.scaling``
    gate's bound).

    * multi-core host whose σ-kernel ceiling reaches the aspirational
      2× → the full 2× acceptance floor;
    * host whose memory system caps kernel scaling below 2× → 80% of
      the measured ceiling (the engine must deliver most of what the
      hardware allows);
    * host with fewer than 4 usable CPUs → no floor: the headline
      points are >= 4-worker runs, which there measure oversubscription.
    """
    full = 2.0
    if meta.get("usable_cpus", meta.get("cpu_count", 1)) < 4:
        return None
    ceiling = meta.get("sigma_kernel_ceiling")
    if ceiling is None or ceiling >= full:
        return full
    return round(0.8 * ceiling, 2)


def _time(fn: Callable, repeats: int):
    """Return (best wall-clock seconds, last result) over ``repeats``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


# ----------------------------------------------------------------------
# Case tables: (label, network builder) per scale.
# ----------------------------------------------------------------------


def _sigma_cases(scale: str) -> List[Dict]:
    sp = ShortestPathsAlgebra()
    hop = HopCountAlgebra(64)
    widest = WidestPathsAlgebra()

    def w(alg, hi=20):
        return uniform_weight_factory(alg, 1, hi)

    if scale == "smoke":
        return [
            dict(label="chain-12/shortest-paths",
                 net=line(sp, 12, w(sp), seed=1)),
            dict(label="gnp-12/hop-count", headline_finite=True,
                 net=erdos_renyi(hop, 12, 0.25, w(hop, 4), seed=2)),
        ]
    if scale == "quick":
        bgp = BGPLiteAlgebra(n_nodes=12)
        return [
            dict(label="chain-40/shortest-paths",
                 net=line(sp, 40, w(sp), seed=1)),
            dict(label="ring-40/hop-count",
                 net=ring(hop, 40, w(hop, 4), seed=2)),
            # quick-scale guard for the vectorized-vs-incremental ratio
            dict(label="gnp-40/hop-count", headline_finite=True,
                 net=erdos_renyi(hop, 40, 0.25, w(hop, 4), seed=8)),
            dict(label="grid-6x6/shortest-paths",
                 net=grid(sp, 6, 6, w(sp), seed=3)),
            dict(label="gnp-40/shortest-paths",
                 net=erdos_renyi(sp, 40, 0.06, w(sp), seed=4)),
            dict(label="gnp-12/bgplite",
                 net=erdos_renyi(bgp, 12, 0.3,
                                 bgp_policy_factory(bgp, allow_reject=False),
                                 seed=5)),
        ]
    bgp = BGPLiteAlgebra(n_nodes=24)
    return [
        dict(label="chain-100/shortest-paths",
             net=line(sp, 100, w(sp), seed=1)),
        dict(label="ring-100/hop-count",
             net=ring(hop, 100, w(hop, 4), seed=2)),
        dict(label="grid-10x10/shortest-paths",
             net=grid(sp, 10, 10, w(sp), seed=3)),
        # the PR 1 headline acceptance case: n=100 sparse random topology
        dict(label="gnp-100/shortest-paths", headline=True,
             net=erdos_renyi(sp, 100, 0.03, w(sp), seed=4)),
        # the PR 2 headline acceptance case: n=100 finite algebra — the
        # vectorized engine must beat the incremental one here
        dict(label="gnp-100/hop-count", headline_finite=True,
             net=erdos_renyi(hop, 100, 0.25, w(hop, 4), seed=8)),
        dict(label="gnp-100/widest-paths",
             net=erdos_renyi(widest, 100, 0.03, w(widest), seed=6)),
        dict(label="gnp-24/bgplite",
             net=erdos_renyi(bgp, 24, 0.15,
                             bgp_policy_factory(bgp, allow_reject=False),
                             seed=7)),
    ]


def _parallel_cases(scale: str) -> List[Dict]:
    """Worker-scaling column: parallel vs vectorized on finite algebras.

    The naive/incremental baselines are deliberately absent here — at
    these sizes they would dominate the harness runtime without adding
    information; the vectorized engine is the yardstick the parallel
    engine must beat (ISSUE 3 headline: ≥ 2× with ≥ 4 workers on an
    n ≥ 400 finite case).
    """
    hop = HopCountAlgebra(64)

    def w(alg, hi=4):
        return uniform_weight_factory(alg, 1, hi)

    if scale == "smoke":
        return []                        # tier-1 smoke stays pool-free
    if scale == "quick":
        return [
            # correctness guard at a size quick can afford; no perf
            # floor is attached at this scale (IPC dominates small n)
            dict(label="gnp-120/hop-count", workers=(2,),
                 net=erdos_renyi(hop, 120, 0.12, w(hop), seed=21)),
        ]
    return [
        # the ISSUE 3 headline acceptance case
        dict(label="gnp-400/hop-count", headline_parallel=True,
             workers=(1, 2, 4),
             net=erdos_renyi(hop, 400, 0.08, w(hop), seed=22)),
        dict(label="gnp-200/hop-count", workers=(2, 4),
             net=erdos_renyi(hop, 200, 0.15, w(hop), seed=23)),
    ]


def _remote_cases(scale: str) -> List[Dict]:
    """Remote column: TCP loopback worker shards vs the vectorized
    engine, plus the wire-efficiency audit (bytes/round, compression).

    No speedup floor is attached — two loopback subprocesses on one
    host measure protocol overhead, not distribution; the claims this
    column carries are bit-identity and wire efficiency.  The headline
    gnp-400 case must keep the delta-encoded format at least the
    ``remote.compression`` floor times smaller than a naive full-column
    transfer.
    """
    hop = HopCountAlgebra(64)

    def w(alg, hi=4):
        return uniform_weight_factory(alg, 1, hi)

    if scale == "smoke":
        return []                        # tier-1 smoke stays socket-free
    if scale == "quick":
        return [
            dict(label="gnp-120/hop-count", workers=2,
                 net=erdos_renyi(hop, 120, 0.12, w(hop), seed=21),
                 delta_steps=400),
        ]
    return [
        # the PR 6 headline acceptance case: same topology as the
        # parallel headline, shipped over TCP
        dict(label="gnp-400/hop-count", headline_remote=True, workers=2,
             net=erdos_renyi(hop, 400, 0.08, w(hop), seed=22),
             delta_steps=800),
        dict(label="gnp-200/hop-count", workers=2,
             net=erdos_renyi(hop, 200, 0.15, w(hop), seed=23),
             delta_steps=600),
    ]


def bench_remote_case(case: Dict, repeats: int) -> Dict:
    """Loopback remote run for one finite case: bit-identity vs the
    vectorized engine plus the wire audit.

    Warm-vs-warm as everywhere else: the worker pool is spawned and the
    tables shipped before the timed region, so ``remote_s`` measures
    steady-state rounds (framing + delta-encoded updates over loopback
    TCP), not process spawn or the one-time topology load.  The wire
    stats recorded are from a single representative run (they are
    deterministic per run, unlike the timings).
    """
    import random as _random

    net = case["net"]
    alg = net.algebra
    start = RoutingState.identity(alg, net.n)
    arcs = sum(1 for _ in net.present_edges())

    vec_eng = VectorizedEngine(net)
    iterate_sigma_vectorized(net, start, engine=vec_eng)
    vec_s, vec_res = _time(
        lambda: iterate_sigma_vectorized(net, start, engine=vec_eng),
        repeats)

    row = dict(
        case=case["label"],
        headline_remote=bool(case.get("headline_remote")),
        n=net.n,
        arcs=arcs,
        workers=case["workers"],
        algebra=alg.name,
        rounds=vec_res.rounds,
        vectorized_s=round(vec_s, 6),
    )
    if not supports_vectorized(alg):         # pragma: no cover - finite cases
        row["skipped"] = "remote engine unsupported for this algebra"
        row["fixed_points_equal"] = True
        return row
    try:
        eng = RemoteVectorizedEngine(net, workers=case["workers"])
    except Exception as exc:             # pragma: no cover - no loopback
        row["skipped"] = f"loopback workers unavailable: {exc}"
        row["fixed_points_equal"] = True
        return row
    try:
        # spawn pool + ship tables (warm)
        iterate_sigma_vectorized(net, start, engine=eng)
        rem_s, rem_res = _time(
            lambda: iterate_sigma_vectorized(net, start, engine=eng),
            repeats)
        sigma_wire = eng.wire_stats.copy()

        sched = RandomSchedule(net.n, seed=17, activation_prob=0.3,
                               max_delay=5)
        dstart = random_state(alg, net.n, _random.Random(1))
        rem_delta = eng.delta(sched, dstart,
                              max_steps=case["delta_steps"])
        delta_wire = eng.wire_stats.copy()
        ipc_commands, ipc_steps = eng.delta_ipc_commands, eng.delta_ipc_steps
    finally:
        eng.close()
    with RoutingSession(net, EngineSpec("vectorized")) as ref:
        ref_delta = ref.delta(sched, dstart,
                              max_steps=case["delta_steps"]).result

    equal = (rem_res.converged == vec_res.converged and
             rem_res.rounds == vec_res.rounds and
             rem_res.state.equals(vec_res.state, alg) and
             rem_delta.converged == ref_delta.converged and
             rem_delta.converged_at == ref_delta.converged_at and
             rem_delta.state.equals(ref_delta.state, alg))

    # the ceiling the remote.wire-ceiling gate holds future runs of
    # this exact case to: the delta-encoded updates must stay well
    # under a naive full-column transfer — the full compression floor
    # on the headline, the generous quick floor on small cases where
    # sparse-change encoding has less to work with
    floor = GATE["remote.compression" if case.get("headline_remote")
                 else "remote.compression-quick"].bound
    naive_per_round = (sigma_wire.naive_bytes / sigma_wire.rounds
                       if sigma_wire.rounds else 0.0)
    row.update(
        remote_s=round(rem_s, 6),
        vs_vectorized=round(vec_s / rem_s, 2) if rem_s > 0 else None,
        sigma_wire=sigma_wire.as_dict(),
        delta_wire=delta_wire.as_dict(),
        delta_ipc_commands=ipc_commands,
        delta_ipc_steps=ipc_steps,
        compression_ratio=round(sigma_wire.compression_ratio, 2),
        bytes_per_round=round(sigma_wire.bytes_per_round, 1),
        bytes_per_round_ceiling=round(naive_per_round / floor, 1),
        fixed_points_equal=equal,
    )
    return row


def _service_cases(scale: str) -> List[Dict]:
    """Service column (PR 7): the routing daemon under concurrent
    asyncio clients, cold (all cache misses) vs warm (fixed-point
    cache hits).

    The claim this column carries is the tentpole acceptance: repeated
    queries against a warm session must be served from the fixed-point
    cache at least the ``service.cache`` floor times faster
    (client-observed p50) than cold computes, at a reported cache hit
    ratio, with zero server-side errors — plus bit-identity of the
    served fixed point against a direct
    :class:`~repro.session.RoutingSession` run.
    """
    if scale == "smoke":
        return []                        # tier-1 smoke stays socket-free
    if scale == "quick":
        return [
            dict(label="service-24c/gnp-64/hop-count", scale="quick",
                 algebra="hop-count", topology="random", n=64, seed=5),
        ]
    return [
        # the PR 7 headline acceptance case: hundreds of concurrent
        # asyncio clients against one warm session
        dict(label="service-200c/gnp-96/hop-count", headline_service=True,
             scale="full", algebra="hop-count", topology="random", n=96,
             seed=5),
    ]


def bench_service_case(case: Dict) -> Dict:
    """One cold/warm load-test run (see ``benchmarks/load_test.py``)
    plus the bit-identity cross-check of the served fixed point."""
    try:
        import load_test as _load_test
    except ImportError:                  # imported as a module, not __main__
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import load_test as _load_test
    from repro.cli import build_network
    from repro.service.protocol import start_state, state_digest

    result = _load_test.run_load_test(
        case["scale"], algebra=case["algebra"], topology=case["topology"],
        seed=case["seed"], n=case["n"])
    # the warm phase queries start_seed=0; a direct session run on an
    # identically-built network must reproduce the served digest
    network, _factory = build_network(
        case["algebra"], case["topology"], case["n"], case["seed"])
    with RoutingSession(network) as session:
        direct = session.sigma(start_state(network, 0))
    row = dict(case=case["label"],
               headline_service=bool(case.get("headline_service")))
    row.update(result)
    row["fixed_points_equal"] = (
        result["warm_digest"] == state_digest(direct.state))
    return row


def _scenario_cases(scale: str) -> List[Dict]:
    """Scenarios column (PR 10): the (topology × event × algebra)
    reconfiguration survey over the committed corpus.

    The claim this column carries is the scenario tentpole acceptance:
    the whole grid runs offline from committed fixtures with **zero
    failed cells**, and — with the oracle on — every cell's batched
    grid results are bit-identical to a per-trial session replay on an
    independently built network.
    """
    if scale == "smoke":
        return []                        # tier-1 smoke stays survey-free
    if scale == "quick":
        return [
            dict(label="scenarios-2x2x2/corpus", scale="quick",
                 topologies=["corpus:cesnet", "corpus:janet"],
                 events=["link-flap", "del-best-route"],
                 algebras=None, trials=2, seed=0),
        ]
    return [
        # the PR 10 headline acceptance grid: every registry topology ×
        # all five events × both finite algebras, oracle-checked
        dict(label="scenarios-10x5x2/full-grid", headline_scenarios=True,
             scale="full", topologies=None, events=None, algebras=None,
             trials=4, seed=0),
    ]


def bench_scenario_case(case: Dict) -> Dict:
    """One oracle-checked survey grid (see ``repro.scenarios.survey``)."""
    from repro.scenarios import run_survey

    report = run_survey(
        topologies=case["topologies"], events=case["events"],
        algebras=case["algebras"], seed=case["seed"],
        trials=case["trials"], oracle=True)
    failed = report.failed
    churn = sum(c.total_churn for c in report.cells if c.ok)
    return dict(
        case=case["label"],
        headline_scenarios=bool(case.get("headline_scenarios")),
        cells=len(report.cells),
        failed_cells=len(failed),
        failures=[f"{c.topology}×{c.event}×{c.algebra}: {c.error}"
                  for c in failed[:5]],
        oracle_checked=sum(1 for c in report.cells if c.oracle_checked),
        total_churn=churn,
        elapsed_s=round(report.elapsed_s, 3),
        # acceptance: zero failed cells and every checked cell's
        # batched grid bit-identical to the per-trial session replay
        fixed_points_equal=(not failed and all(
            c.oracle_ok for c in report.cells if c.oracle_checked)))


def _fault_cases(scale: str) -> List[Dict]:
    """Faults column (PR 8): time-to-heal after a worker kill.

    The claim this column carries is the self-healing tentpole: a
    killed loopback worker mid-run is respawned, the interrupted run
    resumes, and the fixed point stays bit-identical to the fault-free
    run — with the heal fast (tens of ms, recorded as p50/p99 over
    repeated kill cycles from ``DegradedEvent.heal_ms``).
    """
    hop = HopCountAlgebra(64)

    def w(alg, hi=4):
        return uniform_weight_factory(alg, 1, hi)

    if scale == "smoke":
        return []                        # tier-1 smoke stays socket-free
    if scale == "quick":
        return [
            dict(label="heal-kill/gnp-120/hop-count", workers=2, kills=3,
                 net=erdos_renyi(hop, 120, 0.12, w(hop), seed=21)),
        ]
    return [
        dict(label="heal-kill/gnp-200/hop-count", headline_faults=True,
             workers=2, kills=8,
             net=erdos_renyi(hop, 200, 0.15, w(hop), seed=23)),
    ]


def bench_fault_case(case: Dict) -> Dict:
    """Repeated kill → heal → re-run cycles against one loopback pool.

    Each cycle kills one worker process, re-runs the σ fixed point
    (the supervisor detects the dead shard, respawns the pool, reruns
    the interrupted round from its input) and asserts bit-identity against the
    vectorized reference.  ``heal_ms`` aggregates the supervisor's own
    per-event heal timings.
    """
    net = case["net"]
    alg = net.algebra
    start = RoutingState.identity(alg, net.n)
    ref = iterate_sigma_vectorized(net, start)
    row = dict(case=case["label"],
               headline_faults=bool(case.get("headline_faults")),
               n=net.n, workers=case["workers"], kills=case["kills"])
    try:
        eng = RemoteVectorizedEngine(net, workers=case["workers"],
                                     socket_timeout=10.0)
    except Exception as exc:             # pragma: no cover - no loopback
        row["skipped"] = f"loopback workers unavailable: {exc}"
        row["fixed_points_equal"] = True
        return row
    heal_ms: List[float] = []
    codes: List[str] = []
    equal = True
    try:
        # spawn pool + ship tables (warm)
        iterate_sigma_vectorized(net, start, engine=eng)
        for k in range(case["kills"]):
            victim = eng._res.procs[k % len(eng._res.procs)]
            victim.kill()
            victim.join(timeout=30)
            res = iterate_sigma_vectorized(net, start, engine=eng)
            equal = equal and (res.converged == ref.converged and
                               res.rounds == ref.rounds and
                               res.state.equals(ref.state, alg))
            heal_ms.extend(ev.heal_ms for ev in eng.degraded
                           if ev.heal_ms is not None)
            codes.extend(ev.code for ev in eng.degraded)
    finally:
        eng.close()
    from repro.service.protocol import percentile
    row.update(
        heals=len(heal_ms),
        degraded_codes=sorted(set(codes)),
        heal_ms={"p50": round(percentile(heal_ms, 50.0), 3),
                 "p99": round(percentile(heal_ms, 99.0), 3),
                 "count": len(heal_ms)},
        healed_every_kill=(len(heal_ms) >= case["kills"] and
                           set(codes) == {"worker-respawned"}),
        fixed_points_equal=equal,
    )
    return row


def _dense_schedules(n: int):
    """High-activation-rate schedule panel for the batched-grid column.

    The communication-amortisation case the batched engine exists for:
    every-step (or near-every-step) activations whose per-trial Python
    loop cost is pure interpreter overhead.  The sparse adversarial
    schedule is measured separately in the zoo row — its near-empty
    steps cost both execution shapes the same, so it dilutes rather
    than informs the headline.
    """
    return [
        SynchronousSchedule(n),
        FixedDelaySchedule(n, delay=2),
        RandomSchedule(n, seed=0, activation_prob=0.4, max_delay=4),
        RandomSchedule(n, seed=1, activation_prob=0.8, max_delay=7),
    ]


def _batched_cases(scale: str) -> List[Dict]:
    """Batched-grid column: the absolute-convergence grid as one tensor
    workload vs a loop of single δ runs on the vectorized rung (both
    warm; one shared session serves the loop)."""
    hop = HopCountAlgebra(64)

    def w(alg, hi=4):
        return uniform_weight_factory(alg, 1, hi)

    if scale == "smoke":
        return []                        # tier-1 smoke stays tiny
    if scale == "quick":
        strat = BoundedStratifiedAlgebra(max_level=3, max_distance=12)
        return [
            # correctness guard at a size quick can afford; only a
            # catastrophic floor applies at this scale
            dict(label="gnp-40/hop-count/grid-8", n_starts=2,
                 net=erdos_renyi(hop, 40, 0.25, w(hop), seed=31),
                 schedules=_dense_schedules, max_steps=1000),
            # tables that are not clipped shifts (the fold's table take)
            # and the full zoo, whose trials finish inside planned
            # windows: each checked against its own single run
            dict(label="gnp-24/stratified-bounded/zoo-grid-22",
                 n_starts=2,
                 net=erdos_renyi(strat, 24, 0.4,
                                 lambda rng, _i, _j:
                                 strat.sample_edge_function(rng), seed=1),
                 schedules=lambda n: schedule_zoo(n), max_steps=2000),
        ]
    return [
        # the ISSUE 4 headline acceptance case: >= 16 trials, dense
        # schedules, n=100 hop-count
        dict(label="gnp-100/hop-count/dense-grid-16",
             headline_batched=True, n_starts=4,
             net=erdos_renyi(hop, 100, 0.25, w(hop), seed=8),
             schedules=_dense_schedules, max_steps=2000),
        # the full paper-faithful zoo (incl. the sparse adversarial
        # schedule whose near-empty tail steps cost both shapes the
        # same) — recorded for honesty, no floor attached
        dict(label="gnp-100/hop-count/zoo-grid-22", n_starts=2,
             net=erdos_renyi(hop, 100, 0.25, w(hop), seed=8),
             schedules=lambda n: schedule_zoo(n), max_steps=2000),
    ]


def _delta_cases(scale: str) -> List[Dict]:
    sp = ShortestPathsAlgebra()
    hop = HopCountAlgebra(64)

    def w(alg, hi=20):
        return uniform_weight_factory(alg, 1, hi)

    if scale == "smoke":
        return [
            dict(label="gnp-10/shortest-paths/random-sched",
                 net=erdos_renyi(sp, 10, 0.3, w(sp), seed=11),
                 schedule=lambda n: RandomSchedule(n, seed=3, max_delay=4),
                 max_steps=300),
        ]
    if scale == "quick":
        return [
            dict(label="gnp-16/shortest-paths/random-sched",
                 net=erdos_renyi(sp, 16, 0.2, w(sp), seed=11),
                 schedule=lambda n: RandomSchedule(n, seed=3, max_delay=5),
                 max_steps=600),
            dict(label="ring-12/hop-count/fixed-delay",
                 net=ring(hop, 12, w(hop, 4), seed=12),
                 schedule=lambda n: FixedDelaySchedule(n, delay=4),
                 max_steps=400),
        ]
    return [
        dict(label="gnp-30/shortest-paths/random-sched",
             net=erdos_renyi(sp, 30, 0.12, w(sp), seed=11),
             schedule=lambda n: RandomSchedule(n, seed=3, max_delay=5),
             max_steps=1200),
        dict(label="ring-20/hop-count/fixed-delay",
             net=ring(hop, 20, w(hop, 4), seed=12),
             schedule=lambda n: FixedDelaySchedule(n, delay=4),
             max_steps=800),
        dict(label="gnp-30/shortest-paths/fixed-delay",
             net=erdos_renyi(sp, 30, 0.12, w(sp), seed=13),
             schedule=lambda n: FixedDelaySchedule(n, delay=6),
             max_steps=1200),
    ]


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------


def bench_sigma_case(case: Dict, repeats: int) -> Dict:
    net = case["net"]
    alg = net.algebra
    start = RoutingState.identity(alg, net.n)
    arcs = sum(1 for _ in net.present_edges())

    naive_s, naive_res = _time(
        lambda: naive_engine.iterate_sigma_naive(net, start), repeats)
    # timed through the public facade: the committed baselines gate
    # "no regression from the session layer" directly
    with RoutingSession(net, EngineSpec("incremental")) as ses:
        inc_s, inc_res = _time(lambda: ses.sigma(start).result, repeats)

    equal = (naive_res.converged == inc_res.converged and
             naive_res.rounds == inc_res.rounds and
             naive_res.state.equals(inc_res.state, alg))

    vec_s = vec_speedup = vec_vs_inc = None
    if supports_vectorized(alg):
        with RoutingSession(net, EngineSpec("vectorized")) as ses:
            vec_s, vec_res = _time(lambda: ses.sigma(start).result, repeats)
        equal = (equal and
                 vec_res.converged == inc_res.converged and
                 vec_res.rounds == inc_res.rounds and
                 vec_res.state.equals(inc_res.state, alg))
        if vec_s > 0:
            vec_speedup = round(naive_s / vec_s, 2)
            vec_vs_inc = round(inc_s / vec_s, 2)
        vec_s = round(vec_s, 6)
    return dict(
        case=case["label"],
        headline=bool(case.get("headline")),
        headline_finite=bool(case.get("headline_finite")),
        n=net.n,
        arcs=arcs,
        algebra=alg.name,
        converged=inc_res.converged,
        rounds=inc_res.rounds,
        naive_s=round(naive_s, 6),
        incremental_s=round(inc_s, 6),
        speedup=round(naive_s / inc_s, 2) if inc_s > 0 else None,
        vectorized_s=vec_s,
        vectorized_speedup=vec_speedup,
        vectorized_vs_incremental=vec_vs_inc,
        fixed_points_equal=equal,
    )


def bench_delta_case(case: Dict, repeats: int) -> Dict:
    net = case["net"]
    alg = net.algebra
    sched = case["schedule"](net.n)
    start = RoutingState.identity(alg, net.n)
    max_steps = case["max_steps"]

    naive_s, naive_res = _time(
        lambda: naive_engine.delta_run_naive(net, sched, start,
                                             max_steps=max_steps), repeats)
    with RoutingSession(net, EngineSpec("incremental")) as ses:
        bounded_s, bounded_res = _time(
            lambda: ses.delta(sched, start, max_steps=max_steps).result,
            repeats)

    equal = (naive_res.converged == bounded_res.converged and
             naive_res.state.equals(bounded_res.state, alg))

    vec_s = vec_speedup = None
    if supports_vectorized(alg):
        with RoutingSession(net, EngineSpec("vectorized")) as ses:
            vec_s, vec_res = _time(
                lambda: ses.delta(sched, start,
                                  max_steps=max_steps).result, repeats)
        equal = (equal and
                 vec_res.converged == bounded_res.converged and
                 vec_res.state.equals(bounded_res.state, alg))
        if vec_s > 0:
            vec_speedup = round(naive_s / vec_s, 2)
        vec_s = round(vec_s, 6)
    mrb = sched.max_read_back() or 1
    return dict(
        case=case["label"],
        n=net.n,
        algebra=alg.name,
        schedule=repr(sched),
        converged=bounded_res.converged,
        steps=bounded_res.steps,
        naive_s=round(naive_s, 6),
        bounded_s=round(bounded_s, 6),
        speedup=round(naive_s / bounded_s, 2) if bounded_s > 0 else None,
        vectorized_s=vec_s,
        vectorized_speedup=vec_speedup,
        max_read_back=mrb,
        naive_history_retained=naive_res.history_retained,
        bounded_history_retained=bounded_res.history_retained,
        memory_bounded=bounded_res.history_retained <= mrb + 2,
        fixed_points_equal=equal,
    )


def bench_parallel_case(case: Dict, repeats: int) -> Dict:
    """Vectorized-vs-parallel worker scaling for one finite case.

    Pools are prebuilt and reused across timing repeats, so the numbers
    measure steady-state rounds (the deployment shape: one long-lived
    pool serving many iterations), not process spawn.  On hosts that
    cannot demonstrate fan-out (single core) the timing sweep is
    skipped cleanly, but engine agreement is still verified with a
    2-worker pool so the committed report always carries correctness
    evidence for the parallel engine.
    """
    net = case["net"]
    alg = net.algebra
    start = RoutingState.identity(alg, net.n)
    arcs = sum(1 for _ in net.present_edges())
    cpus = usable_cpus()

    # warm-vs-warm: prebuild (and warm) the vectorized engine so the
    # baseline measures steady-state rounds, exactly like the pool side
    # below — timing engine construction/encoding on one side only
    # would bias the ratio
    vec_eng = VectorizedEngine(net)
    iterate_sigma_vectorized(net, start, engine=vec_eng)
    vec_s, vec_res = _time(
        lambda: iterate_sigma_vectorized(net, start, engine=vec_eng),
        repeats)

    def check(res):
        return (res.converged == vec_res.converged and
                res.rounds == vec_res.rounds and
                res.state.equals(vec_res.state, alg))

    row = dict(
        case=case["label"],
        headline_parallel=bool(case.get("headline_parallel")),
        n=net.n,
        arcs=arcs,
        algebra=alg.name,
        rounds=vec_res.rounds,
        vectorized_s=round(vec_s, 6),
    )
    if not supports_parallel(alg):       # pragma: no cover - finite cases
        row["skipped"] = "parallel engine unsupported on this host"
        row["fixed_points_equal"] = True
        return row

    if cpus < 2:
        # single-core runner: a timing sweep would only measure
        # oversubscription; verify agreement and skip the scaling claim
        with ParallelVectorizedEngine(net, workers=2) as eng:
            res = iterate_sigma_vectorized(net, start, engine=eng)
        row["skipped"] = (f"single-core host (usable_cpus()={cpus}): "
                          "worker scaling not measurable")
        row["fixed_points_equal"] = check(res)
        return row

    scaling = []
    equal = True
    best = None
    for workers in case["workers"]:
        if workers <= 1:
            # the 1-worker point of the scaling curve *is* the serial
            # vectorized engine (the selector falls back to it)
            scaling.append(dict(workers=1, parallel_s=round(vec_s, 6),
                                vs_vectorized=1.0))
            continue
        with ParallelVectorizedEngine(net, workers=workers) as eng:
            # warm-up: the pool starts lazily on first use — spawn the
            # workers and publish the tables outside the timed region,
            # as the docstring's steady-state claim requires
            iterate_sigma_vectorized(net, start, engine=eng)
            par_s, par_res = _time(
                lambda: iterate_sigma_vectorized(net, start, engine=eng),
                repeats)
        equal = equal and check(par_res)
        ratio = round(vec_s / par_s, 2) if par_s > 0 else None
        if ratio is not None:
            best = ratio if best is None else max(best, ratio)
        scaling.append(dict(workers=workers,
                            parallel_s=round(par_s, 6),
                            vs_vectorized=ratio))
    row["scaling"] = scaling
    row["best_vs_vectorized"] = best
    row["fixed_points_equal"] = equal
    return row


def bench_batched_case(case: Dict, repeats: int) -> Dict:
    """Batched grid vs a per-trial loop of single δ runs for one grid.

    Warm-vs-warm: the loop runs every trial as one
    ``RoutingSession.delta`` on the vectorized rung (the compiled step
    with B = 1) through one warmed session, the batched engine is
    prebuilt and warmed the same way, and both execute the identical
    (schedule × start) trials to identical results — every trial's
    convergence step and fixed point is cross-checked between the two
    shapes.
    """
    import random as _random

    net = case["net"]
    alg = net.algebra
    n = net.n
    rng = _random.Random(0)
    starts = [RoutingState.identity(alg, n)]
    starts += [random_state(alg, n, rng)
               for _ in range(case["n_starts"] - 1)]
    schedules = case["schedules"](n)
    trials = [(sched, start) for start in starts for sched in schedules]
    max_steps = case["max_steps"]

    with RoutingSession(net, EngineSpec("vectorized")) as session:
        def loop():
            return [session.delta(sched, start, max_steps=max_steps).result
                    for (sched, start) in trials]

        loop()                           # warm tables/encodings
        loop_s, loop_res = _time(loop, repeats)

    bat_eng = BatchedVectorizedEngine(net)
    bat_eng.delta_grid(trials, max_steps=max_steps)   # warm
    bat_s, bat_res = _time(
        lambda: bat_eng.delta_grid(trials, max_steps=max_steps), repeats)

    equal = all(
        a.converged == b.converged and a.converged_at == b.converged_at
        and a.state.equals(b.state, alg)
        for a, b in zip(loop_res, bat_res))
    return dict(
        case=case["label"],
        headline_batched=bool(case.get("headline_batched")),
        n=n,
        trials=len(trials),
        algebra=alg.name,
        all_converged=all(r.converged for r in bat_res),
        loop_s=round(loop_s, 6),
        batched_s=round(bat_s, 6),
        batched_vs_loop=round(loop_s / bat_s, 2) if bat_s > 0 else None,
        fixed_points_equal=equal,
    )


def _warm_sigma_cases(scale: str) -> List[Dict]:
    """σ after a write, cold and warm (run-only; no committed row).

    One hop-count G(n, p) network takes alternating one-arc writes —
    remove an arc, then re-install it — and after each is re-solved on
    the vectorized rung twice: cold from the identity, and warm from
    the fixed point the previous warm solve returned (the engine's
    certificate, so only the written arc's importer row is recomputed
    first).  Theorem 7 holds on hop count, so both reach one fixed
    point; the gate wants them equal and the warm solves at least
    ``warm_sigma.speedup`` times faster in total.
    """
    hop = HopCountAlgebra(16)
    n, p, writes = (24, 0.3, 4) if scale == "smoke" else (200, 0.2, 8)
    return [dict(label=f"gnp-{n}/hop-count/sigma-after-write", n=n,
                 writes=writes,
                 net=erdos_renyi(hop, n, p, uniform_weight_factory(hop, 1, 3),
                                 seed=11))]


def bench_warm_sigma_case(case: Dict) -> Dict:
    import random as _random

    net, writes = case["net"], case["writes"]
    alg = net.algebra
    arcs = sorted(net.present_edges())
    rng = _random.Random(7)
    cold_s = warm_s = 0.0
    equal = True
    rounds = {"cold": [], "warm": []}
    with RoutingSession(net, EngineSpec("vectorized")) as cold, \
            RoutingSession(net, EngineSpec("vectorized")) as warm:
        fp = warm.sigma().state
        removed = None
        for _ in range(writes):
            if removed is None:
                i, k = removed = arcs[rng.randrange(len(arcs))]
                fn = net.edge(i, k)
                net.remove_edge(i, k)
            else:
                net.set_edge(*removed, fn)
                removed = None
            t0 = time.perf_counter()
            c = cold.sigma()
            t1 = time.perf_counter()
            w = warm.sigma(fp)
            t2 = time.perf_counter()
            cold_s += t1 - t0
            warm_s += t2 - t1
            rounds["cold"].append(c.rounds)
            rounds["warm"].append(w.rounds)
            equal = (equal and c.converged and w.converged
                     and w.state.equals(c.state, alg))
            fp = w.state
    return dict(
        case=case["label"],
        n=net.n,
        arcs=len(arcs),
        writes=writes,
        cold_s=round(cold_s, 6),
        warm_s=round(warm_s, 6),
        warm_vs_cold=round(cold_s / warm_s, 2) if warm_s > 0 else None,
        cold_rounds=rounds["cold"],
        warm_rounds=rounds["warm"],
        fixed_points_equal=equal,
    )


def bench_windowed_ipc(scale: str) -> Optional[Dict]:
    """Windowed remote δ: worker commands per schedule step at the
    default window (16), on 2 loopback TCP workers.

    The ratio is a protocol property, not a hardware one, so it is
    measured whenever loopback workers can run at all (single-CPU hosts
    included) and gated at ≥ 8× on runs long enough to amortise; the
    run is cross-checked against the vectorized rung.
    """
    hop = HopCountAlgebra(64)
    if scale == "smoke" or not supports_vectorized(hop):
        return None
    import random as _random

    n = 60 if scale == "quick" else 120
    net = erdos_renyi(hop, n, 0.15, uniform_weight_factory(hop, 1, 4),
                      seed=41)
    # a garbage start and sparse activations keep the run past the
    # 4-window amortisation threshold the gate requires
    start = random_state(hop, n, _random.Random(1))
    sched = RandomSchedule(n, seed=17, activation_prob=0.1, max_delay=8)
    with RemoteVectorizedEngine(net, workers=2) as eng:
        res = eng.delta(sched, start, max_steps=800)
        commands, steps = eng.delta_ipc_commands, eng.delta_ipc_steps
    with RoutingSession(net, EngineSpec("vectorized")) as ref:
        serial = ref.delta(sched, start, max_steps=800).result
    from repro.core import DELTA_WINDOW

    return dict(
        case=f"gnp-{n}/hop-count/windowed-delta",
        window=DELTA_WINDOW,
        delta_steps=steps,
        ipc_commands=commands,
        steps_per_command=round(steps / commands, 2) if commands else None,
        fixed_points_equal=(res.converged == serial.converged
                            and res.converged_at == serial.converged_at
                            and res.state.equals(serial.state, net.algebra)),
    )


def run_suite(scale: str = "full", repeats: Optional[int] = None) -> Dict:
    """Run every case at ``scale`` ∈ {smoke, quick, full}; return the report."""
    if scale not in ("smoke", "quick", "full"):
        raise ValueError(f"unknown scale {scale!r}")
    if repeats is None:
        repeats = 2 if scale == "full" else 1
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    parallel_cases = _parallel_cases(scale)
    report = {
        "meta": {
            "scale": scale,
            "repeats": repeats,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
            # the empirical probes only run when the scale has a
            # parallel column (smoke stays probe- and pool-free)
            "usable_cpus": usable_cpus() if parallel_cases
            else (os.cpu_count() or 1),
            "sigma_kernel_ceiling": (
                sigma_kernel_ceiling(parallel_cases[0]["net"])
                if parallel_cases and usable_cpus() >= 2 else None),
            "engine": "incremental (PR 1) + vectorized finite-algebra "
                      "(PR 2) + shared-memory parallel (PR 3) + batched "
                      "multi-trial grid (PR 4) + TCP-sharded remote "
                      "(PR 6) + routing service daemon (PR 7) + "
                      "scenario reconfiguration harness (PR 10)",
            "baseline": "frozen seed engine (benchmarks/naive_engine.py)",
        },
        "sigma": [bench_sigma_case(c, repeats) for c in _sigma_cases(scale)],
        "delta": [bench_delta_case(c, repeats) for c in _delta_cases(scale)],
        "parallel": [bench_parallel_case(c, repeats)
                     for c in parallel_cases],
        "batched": [bench_batched_case(c, repeats)
                    for c in _batched_cases(scale)],
        "remote": [bench_remote_case(c, repeats)
                   for c in _remote_cases(scale)],
        "service": [bench_service_case(c) for c in _service_cases(scale)],
        "faults": [bench_fault_case(c) for c in _fault_cases(scale)],
        "scenarios": [bench_scenario_case(c)
                      for c in _scenario_cases(scale)],
    }
    ipc = bench_windowed_ipc(scale)
    report["windowed_ipc"] = [ipc] if ipc else []
    report["warm_sigma"] = [bench_warm_sigma_case(c)
                            for c in _warm_sigma_cases(scale)]
    report["meta"]["all_fixed_points_equal"] = all(
        r["fixed_points_equal"] for column in COLUMNS + RUN_COLUMNS
        for r in report[column])
    return report


def _fmt_speedup(speedup) -> str:
    # speedup is None when the new-engine timing underflowed the clock
    return f"{speedup:>7.1f}x" if speedup is not None else f"{'—':>8}"


def _fmt_seconds(value) -> str:
    return f"{value:>10.4f}" if value is not None else f"{'—':>10}"


def _print_report(report: Dict) -> None:
    print(f"engine benchmark — scale={report['meta']['scale']} "
          f"(best of {report['meta']['repeats']})")
    print(f"{'case':<40} {'rounds':>6} {'old (s)':>10} {'new (s)':>10} "
          f"{'vec (s)':>10} {'speedup':>8} {'vec/inc':>8}  ok")
    for r in report["sigma"]:
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        star = ("*" if r["headline"] else
                "†" if r.get("headline_finite") else " ")
        print(f"{r['case']:<39}{star} {r['rounds']:>6} {r['naive_s']:>10.4f} "
              f"{r['incremental_s']:>10.4f} {_fmt_seconds(r['vectorized_s'])} "
              f"{_fmt_speedup(r['speedup'])} "
              f"{_fmt_speedup(r.get('vectorized_vs_incremental'))}  {mark}")
    for r in report["delta"]:
        mark = "✓" if r["fixed_points_equal"] and r["memory_bounded"] else "✗"
        print(f"{r['case']:<40} {r['steps']:>6} {r['naive_s']:>10.4f} "
              f"{r['bounded_s']:>10.4f} {_fmt_seconds(r['vectorized_s'])} "
              f"{_fmt_speedup(r['speedup'])} {'':>8}  {mark} "
              f"(history {r['naive_history_retained']} → "
              f"{r['bounded_history_retained']}, bound "
              f"{r['max_read_back'] + 2})")
    for r in report["parallel"]:
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        star = "‡" if r.get("headline_parallel") else " "
        if r.get("skipped"):
            print(f"{r['case']:<39}{star} parallel scaling skipped: "
                  f"{r['skipped']} (agreement {mark})")
            continue
        curve = "  ".join(
            f"{p['workers']}w {_fmt_speedup(p['vs_vectorized']).strip()}"
            for p in r["scaling"])
        print(f"{r['case']:<39}{star} {r['rounds']:>6} "
              f"{_fmt_seconds(r['vectorized_s'])} (vec)  {curve}  {mark}")
    for r in report.get("batched", []):
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        star = "§" if r.get("headline_batched") else " "
        print(f"{r['case']:<39}{star} {r['trials']:>3} trials "
              f"{_fmt_seconds(r['loop_s'])} (loop) "
              f"{_fmt_seconds(r['batched_s'])} (batched) "
              f"{_fmt_speedup(r['batched_vs_loop'])}  {mark}")
    for r in report.get("remote", []):
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        star = "¶" if r.get("headline_remote") else " "
        if r.get("skipped"):
            print(f"{r['case']:<39}{star} remote column skipped: "
                  f"{r['skipped']} (agreement {mark})")
            continue
        print(f"{r['case']:<39}{star} {r['rounds']:>6} "
              f"{_fmt_seconds(r['vectorized_s'])} (vec) "
              f"{_fmt_seconds(r['remote_s'])} ({r['workers']}w tcp)  "
              f"{r['bytes_per_round']:.0f} B/round "
              f"(ceiling {r['bytes_per_round_ceiling']:.0f}), "
              f"compression {r['compression_ratio']}x  {mark}")
    for r in report.get("service", []):
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        star = "∥" if r.get("headline_service") else " "
        print(f"{r['case']:<39}{star} {r['clients']:>4} clients  "
              f"cold p50 {r['cold_ms']['p50']:>8.2f} ms  "
              f"warm p50 {r['warm_ms']['p50']:>7.3f} ms  "
              f"{_fmt_speedup(r['cache_hit_speedup'])} "
              f"(hit ratio {r['cache_hit_ratio']}, "
              f"{r['server_errors']} errors)  {mark}")
    for r in report.get("faults", []):
        mark = ("✓" if r["fixed_points_equal"] and
                r.get("healed_every_kill") else "✗ MISMATCH")
        star = "☠" if r.get("headline_faults") else " "
        if r.get("skipped"):
            print(f"{r['case']:<39}{star} faults column skipped: "
                  f"{r['skipped']} (agreement {mark})")
            continue
        print(f"{r['case']:<39}{star} {r['kills']:>3} kills  "
              f"{r['heals']:>3} heals  "
              f"time-to-heal p50 {r['heal_ms']['p50']:>7.1f} ms  "
              f"p99 {r['heal_ms']['p99']:>7.1f} ms  {mark}")
    for r in report.get("scenarios", []):
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        star = "⟲" if r.get("headline_scenarios") else " "
        print(f"{r['case']:<39}{star} {r['cells']:>4} cells  "
              f"{r['failed_cells']} failed  "
              f"{r['oracle_checked']} oracle-checked  "
              f"churn {r['total_churn']}  "
              f"{r['elapsed_s']:>7.2f}s  {mark}")
    for r in report.get("windowed_ipc", []):
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        print(f"{r['case']:<40} {r['delta_steps']:>4} δ steps in "
              f"{r['ipc_commands']:>3} IPC commands "
              f"({r['steps_per_command']}x amortised, window="
              f"{r['window']})  {mark}")
    for r in report.get("warm_sigma", []):
        mark = "✓" if r["fixed_points_equal"] else "✗ MISMATCH"
        print(f"{r['case']:<40} {r['writes']:>3} writes  "
              f"{_fmt_seconds(r['cold_s'])} (cold) "
              f"{_fmt_seconds(r['warm_s'])} (warm) "
              f"{_fmt_speedup(r['warm_vs_cold'])}  rounds "
              f"{max(r['cold_rounds'])} → {max(r['warm_rounds'])} (max)  "
              f"{mark}")
    print("  * = PR 1 headline (n=100 sparse random)   "
          "† = PR 2 finite headline (vectorized vs incremental)   "
          "‡ = PR 3 parallel headline (n≥400, workers vs vectorized)   "
          "§ = PR 4 batched-grid headline (tensor grid vs per-trial loop)   "
          "¶ = PR 6 remote headline (wire compression vs naive transfer)   "
          "∥ = PR 7 service headline (warm-cache hits vs cold computes)   "
          "☠ = PR 8 faults headline (time-to-heal after a worker kill)   "
          "⟲ = PR 10 scenarios headline (oracle-checked reconfiguration "
          "survey grid)")


# ----------------------------------------------------------------------
# Acceptance gates: one table, one checking loop
# ----------------------------------------------------------------------

#: the committed full-run baseline (what a full run rewrites)
BASELINE = Path(__file__).resolve().parent.parent / "BENCH_core.json"

#: the report columns, in report order
COLUMNS = ("sigma", "delta", "parallel", "batched", "remote", "service",
           "faults", "scenarios", "windowed_ipc")

#: columns only a fresh run is held to (the committed baseline
#: predates them, and a full run adds them to it)
RUN_COLUMNS = ("warm_sigma",)

#: which report a gate holds: the committed baseline, a fresh quick
#: run (``--quick`` and the CI steps that re-measure a column), or both
COMMITTED, RUN, BOTH = "committed", "run", "both"


class Gate(NamedTuple):
    """One acceptance check: ``metric op bound`` on every row of
    ``column`` that ``rows`` selects (``"meta"`` is a one-row column).

    ``metric`` is a dotted path into the row (``"heal_ms.p99"``) or a
    function of the row; ``None`` makes the gate a presence check on
    the number of selected rows.  ``bound`` is a value or a function
    ``(row, meta) -> value``, where ``None`` means "not enforced on
    this report".
    """

    name: str
    reports: str
    column: str
    rows: Callable[[Dict], bool]
    metric: Any
    op: str
    bound: Any
    message: str


def _get(row: Dict, path: str) -> Any:
    for key in path.split("."):
        row = row.get(key) if isinstance(row, dict) else None
    return row


def _every(row: Dict) -> bool:
    return True


def _ran(row: Dict) -> bool:
    """Rows that measured something (a host without workers skips)."""
    return not row.get("skipped")


def _flag(flag: str, ran: bool = False) -> Callable[[Dict], bool]:
    """Rows marked ``flag`` (a case's headline marker); with ``ran``
    only those that were not skipped."""
    return lambda row: bool(row.get(flag)) and (not ran or _ran(row))


def _measured(key: str) -> Callable[[Dict], bool]:
    """Rows whose ``key`` was measured (a timing can underflow)."""
    return lambda row: _ran(row) and row.get(key) is not None


def _field(path: str) -> Callable[[Dict, Dict], Any]:
    """A bound read from another field of the same row."""
    return lambda row, _meta: _get(row, path)


def best_at_4_workers(row: Dict) -> float:
    """The parallel headline's best speedup over the vectorized engine
    among its >= 4-worker scaling points."""
    return max((p["vs_vectorized"] for p in row.get("scaling", [])
                if p["workers"] >= 4 and p["vs_vectorized"]), default=0.0)


GATES: Tuple[Gate, ...] = (
    Gate("meta.agreement", COMMITTED, "meta", _every,
         "all_fixed_points_equal", "==", True, "engines disagree"),
    *(Gate(f"{column}.agreement", BOTH, column, _every,
           "fixed_points_equal", "==", True, "engines disagree")
      for column in COLUMNS),
    # σ: incremental vs the frozen seed engine, vectorized vs both
    Gate("sigma.headline", COMMITTED, "sigma", _flag("headline"), None,
         ">=", 1, "the n=100 sparse-random headline case is missing"),
    Gate("sigma.headline-n", COMMITTED, "sigma", _flag("headline"), "n",
         ">=", 100, "the headline case is below n=100"),
    Gate("sigma.headline-speedup", COMMITTED, "sigma", _flag("headline"),
         "speedup", ">=", 10, "incremental σ is under 10x the seed engine"),
    Gate("sigma.finite-headline", COMMITTED, "sigma",
         _flag("headline_finite"), None, ">=", 1,
         "the finite (vectorized) headline case is missing"),
    Gate("sigma.vectorized", COMMITTED, "sigma", _flag("headline_finite"),
         "vectorized_vs_incremental", ">=", 3.0, "vectorized σ too slow"),
    Gate("sigma.vectorized-quick", RUN, "sigma", _flag("headline_finite"),
         "vectorized_vs_incremental", ">=", 0.8, "vectorized σ regressed"),
    # δ: the ring buffer bounds memory
    Gate("delta.memory-bounded", COMMITTED, "delta", _every,
         "memory_bounded", "==", True, "δ history is not bounded"),
    Gate("delta.history-ring", COMMITTED, "delta", _every,
         "bounded_history_retained", "<=",
         lambda row, _meta: row["max_read_back"] + 2,
         "the δ ring holds more than max_read_back + 2 states"),
    # parallel: worker scaling, held to what the baseline host allows
    Gate("parallel.headline", COMMITTED, "parallel",
         _flag("headline_parallel"), None, ">=", 1,
         "the n >= 400 parallel headline case is missing"),
    Gate("parallel.headline-n", COMMITTED, "parallel",
         _flag("headline_parallel"), "n", ">=", 400, "headline below n=400"),
    Gate("parallel.skip-reason", COMMITTED, "parallel",
         lambda row: bool(row.get("headline_parallel")) and not _ran(row),
         "skipped", "contains", "single-core",
         "only a single-core host may skip the headline"),
    Gate("parallel.scaling", COMMITTED, "parallel",
         _flag("headline_parallel", ran=True), best_at_4_workers, ">=",
         lambda _row, meta: parallel_floor(meta),
         ">= 4 workers under the hardware-aware floor over vectorized"),
    Gate("parallel.scaling-quick", RUN, "parallel",
         _measured("best_vs_vectorized"), "best_vs_vectorized", ">=", 0.25,
         "the pool collapsed against vectorized"),
    # batched: the tensor grid vs a per-trial loop
    Gate("batched.headline", COMMITTED, "batched",
         _flag("headline_batched"), None, ">=", 1,
         "the n=100 batched-grid headline case is missing"),
    Gate("batched.headline-n", COMMITTED, "batched",
         _flag("headline_batched"), "n", ">=", 100, "headline below n=100"),
    Gate("batched.headline-trials", COMMITTED, "batched",
         _flag("headline_batched"), "trials", ">=", 16, "under 16 trials"),
    Gate("batched.speedup", COMMITTED, "batched", _flag("headline_batched"),
         "batched_vs_loop", ">=", 3.0, "batched grid too slow vs the loop"),
    Gate("batched.speedup-quick", RUN, "batched",
         _measured("batched_vs_loop"), "batched_vs_loop", ">=", 0.5,
         "the batched engine collapsed against the per-trial loop"),
    # windowed δ: schedule steps per remote worker command
    Gate("windowed_ipc.present", BOTH, "windowed_ipc", _every, None,
         ">=", 1, "the windowed-IPC row is missing"),
    Gate("windowed_ipc.long-run", RUN, "windowed_ipc", _every,
         "delta_steps", ">=", lambda row, _meta: 4 * row["window"],
         "the run is too short to amortise (< 4 windows)"),
    Gate("windowed_ipc.amortisation", BOTH, "windowed_ipc",
         lambda row: row["delta_steps"] >= 4 * row["window"],
         "steps_per_command", ">=", 8.0,
         "too few δ steps per worker command (on >= 4 windows)"),
    # remote: bit identity and wire efficiency
    Gate("remote.headline", COMMITTED, "remote", _flag("headline_remote"),
         None, ">=", 1, "the gnp-400 remote headline case is missing"),
    Gate("remote.headline-n", COMMITTED, "remote", _flag("headline_remote"),
         "n", ">=", 400, "headline below n=400"),
    Gate("remote.headline-workers", COMMITTED, "remote",
         _flag("headline_remote", ran=True), "workers", ">=", 2,
         "headline ran fewer than 2 workers"),
    Gate("remote.ran", RUN, "remote", _every, _ran, "==", True,
         "the case did not run (no loopback workers)"),
    Gate("remote.compression", COMMITTED, "remote",
         _flag("headline_remote", ran=True), "compression_ratio", ">=", 4.0,
         "σ updates compress too little vs a naive full-column transfer"),
    Gate("remote.compression-quick", BOTH, "remote",
         lambda row: _ran(row) and not row.get("headline_remote"),
         "compression_ratio", ">=", 2.0,
         "σ updates barely compress vs a naive full-column transfer"),
    Gate("remote.wire-ceiling", BOTH, "remote", _ran, "bytes_per_round",
         "<=", _field("bytes_per_round_ceiling"),
         "σ traffic is over its bytes/round ceiling"),
    Gate("remote.wire-rounds", COMMITTED, "remote",
         _flag("headline_remote", ran=True), "sigma_wire.rounds", ">=",
         _field("rounds"), "fewer wire barriers than σ rounds"),
    # service: warm-cache hits vs cold computes
    Gate("service.headline", COMMITTED, "service",
         _flag("headline_service"), None, ">=", 1,
         "the 200-client service headline case is missing"),
    Gate("service.errors", BOTH, "service", _every, "server_errors", "==",
         0, "the daemon reported request errors under load"),
    Gate("service.clients", COMMITTED, "service",
         _flag("headline_service"), "clients", ">=", 100,
         "headline ran fewer than 100 concurrent clients"),
    Gate("service.cache", COMMITTED, "service", _flag("headline_service"),
         "cache_hit_speedup", ">=", 5.0, "warm-cache hits too slow"),
    Gate("service.cache-quick", RUN, "service",
         _measured("cache_hit_speedup"), "cache_hit_speedup", ">=", 2.0,
         "warm-cache hits collapsed against cold computes"),
    Gate("service.hit-ratio", COMMITTED, "service",
         _flag("headline_service"), "cache_hit_ratio", ">", 0.0,
         "no cache hits"),
    Gate("service.hit-ratio-max", COMMITTED, "service",
         _flag("headline_service"), "cache_hit_ratio", "<=", 1.0,
         "hit ratio above 1"),
    Gate("service.warm-tail", COMMITTED, "service",
         _flag("headline_service"), "warm_ms.p99", ">=",
         _field("warm_ms.p50"), "warm p99 below warm p50"),
    # scenarios: the oracle-checked survey grid
    Gate("scenarios.headline", COMMITTED, "scenarios",
         _flag("headline_scenarios"), None, ">=", 1,
         "the full survey-grid headline is missing"),
    Gate("scenarios.failed-cells", BOTH, "scenarios", _every,
         "failed_cells", "==", 0, "survey cells failed"),
    Gate("scenarios.failures", COMMITTED, "scenarios", _every, "failures",
         "==", [], "survey failures recorded"),
    Gate("scenarios.cells", COMMITTED, "scenarios",
         _flag("headline_scenarios"), "cells", ">=", 48,
         "headline grid under the 6x4x2 acceptance floor"),
    Gate("scenarios.oracle", COMMITTED, "scenarios",
         lambda row: bool(row.get("headline_scenarios"))
         and row["cells"] >= 48, "oracle_checked", "==", _field("cells"),
         "not every cell of the headline grid was oracle-checked"),
    # faults: heal every worker kill, fast
    Gate("faults.present", COMMITTED, "faults", _every, None, ">=", 1,
         "the faults column is missing"),
    Gate("faults.healed", BOTH, "faults", _ran, "healed_every_kill", "==",
         True, "a worker kill went unhealed"),
    Gate("faults.heal-p99", COMMITTED, "faults",
         _flag("headline_faults", ran=True), "heal_ms.p99", "<=", 5000.0,
         "time-to-heal over the ceiling (the supervisor thrashes)"),
    # warm σ: a re-solve after a write from the last fixed point
    Gate("warm_sigma.agreement", RUN, "warm_sigma", _every,
         "fixed_points_equal", "==", True,
         "warm and cold σ after a write disagree"),
    Gate("warm_sigma.speedup", RUN, "warm_sigma", _measured("warm_vs_cold"),
         "warm_vs_cold", ">=", 2.0,
         "a warm σ after a write is under 2x the cold one"),
)

#: gates by name
GATE = {gate.name: gate for gate in GATES}

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
        "==": operator.eq, "contains": operator.contains}


def check_gates(report: Dict, which: str,
                column: Optional[str] = None) -> List[Tuple[str, str]]:
    """Hold ``report`` to every gate of ``which`` (:data:`COMMITTED` or
    :data:`RUN`), or only to ``column``'s; returns ``(gate name,
    problem)`` pairs, empty when every gate holds."""
    label = "baseline" if which == COMMITTED else "current run"
    meta = report.get("meta", {})
    problems = []
    for gate in GATES:
        if gate.reports not in (which, BOTH) or \
                column not in (None, gate.column):
            continue
        rows = report.get(gate.column) or []
        rows = [r for r in ([rows] if isinstance(rows, dict) else rows)
                if gate.rows(r)]
        if gate.metric is None:          # a presence gate counts rows
            if not _OPS[gate.op](len(rows), gate.bound):
                problems.append(
                    (gate.name, f"{label} {gate.column}: {gate.message}"))
            continue
        for row in rows:
            bound = gate.bound(row, meta) if callable(gate.bound) \
                else gate.bound
            if bound is None:
                continue
            if callable(gate.metric):
                name, value = gate.metric.__name__, gate.metric(row)
            else:
                name, value = gate.metric, _get(row, gate.metric)
            try:
                ok = _OPS[gate.op](value, bound)
            except TypeError:            # a missing value fails
                ok = False
            if not ok:
                problems.append((gate.name, (
                    f"{label} {row.get('case', gate.column)}: "
                    f"{gate.message} ({name} = {value!r}, gate "
                    f"{gate.op} {bound!r})")))
    return problems


#: columns a CI step re-measures at quick scale
_QUICK_RERUN = {
    "batched": lambda: [bench_batched_case(case, 1)
                        for case in _batched_cases("quick")],
    "remote": lambda: [bench_remote_case(case, 1)
                       for case in _remote_cases("quick")],
    "windowed_ipc": lambda: [row for row in [bench_windowed_ipc("quick")]
                             if row],
    "warm_sigma": lambda: [bench_warm_sigma_case(case)
                           for case in _warm_sigma_cases("quick")],
}


def ci_gate(column: str) -> int:
    """One CI step: the committed ``column`` against its committed gates
    and — for a column in :data:`_QUICK_RERUN` — that column re-measured
    at quick scale against its run gates.  Prints the rows it checked
    and every problem; returns the exit code."""
    baseline = json.loads(BASELINE.read_text())
    problems = check_gates(baseline, COMMITTED, column)
    rows = baseline.get(column, [])
    if column in _QUICK_RERUN:
        rows = _QUICK_RERUN[column]()
        problems += check_gates({column: rows}, RUN, column)
    print(json.dumps(rows, indent=1))
    for _name, problem in problems:
        print(f"  - {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small cases; finishes in seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cases for CI smoke testing")
    def positive_int(value):
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return n

    parser.add_argument("--repeats", type=positive_int, default=None,
                        help="timing repeats per case (best is kept)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here "
                             "(default: BENCH_core.json for full runs)")
    args = parser.parse_args(argv)

    scale = "smoke" if args.smoke else "quick" if args.quick else "full"
    report = run_suite(scale, repeats=args.repeats)
    _print_report(report)

    ok = report["meta"]["all_fixed_points_equal"]
    if scale == "quick":
        if BASELINE.exists():
            problems = check_gates(
                json.loads(BASELINE.read_text()), COMMITTED) + \
                check_gates(report, RUN)
        else:
            problems = [("", f"no committed baseline at {BASELINE}; run "
                             "the full suite first")]
        if problems:
            print("\nbaseline regression FAILED:")
            for _name, problem in problems:
                print(f"  - {problem}")
            ok = False
        else:
            print(f"\nbaseline regression vs {BASELINE.name}: ok")

    out = args.out
    if out is None and scale == "full":
        out = BASELINE
    if out is not None:
        out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
