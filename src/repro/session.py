"""`RoutingSession`: the one public entry point to the σ/δ machinery.

The paper's message is that a single algebraic object ``(A, ⊕, F)``
determines both the synchronous σ-iteration and the asynchronous δ-run.
The library has six execution engines for that object (naive →
incremental → vectorized → parallel → batched → remote); this module is
the one negotiated facade over them:

>>> from repro.session import EngineSpec, RoutingSession
>>> with RoutingSession(net, EngineSpec("auto")) as s:
...     report = s.sigma()                  # SigmaReport
...     print(report.resolution.explain())  # which rung ran, and why
...     dr = s.delta(schedule)              # DeltaReport
...     grid = s.delta_grid(trials)         # GridReport
...     verdict = s.converges()             # ConvergenceReport

What the session owns:

* **Capability-negotiated engine resolution** — every entry point
  resolves its rung through
  :func:`repro.core.capabilities.resolve_engine` against the engines'
  advertised :class:`~repro.core.capabilities.Capabilities`; the
  resulting :class:`~repro.core.capabilities.EngineResolution` (chosen
  rung + machine-readable reason chain for every skipped rung) rides on
  every report.  ``EngineSpec(strict=True)`` raises
  :class:`~repro.core.capabilities.UnsupportedEngineError` instead of
  falling back.
* **Managed resources** — vectorized/batched engines, the parallel
  worker pool (processes + shared-memory segments) and the remote
  rung's TCP connections (plus any loopback worker subprocesses) are
  built lazily, reused across calls, and released by :meth:`close` /
  the context manager / a ``weakref.finalize`` backstop.  The remote
  engine's snapshot cannot follow topology mutations, so the session
  rebuilds it (fresh connections, fresh snapshot) when
  ``adjacency.version`` moves.
* **Schedule compilation caching** — the compiled α/β forms a grid
  runs on (:class:`~repro.core.schedule.CompiledSchedule`) are cached
  per schedule object (the :data:`SCHEDULE_CACHE_SIZE` most recently
  used) and reused across grids; a single δ run compiles its schedule
  for the run only, so a session serving fresh schedules holds no
  compiled forms between runs.
* **Structured run reports** — every entry point returns a typed
  dataclass (:class:`SigmaReport`, :class:`DeltaReport`,
  :class:`GridReport`, :class:`ConvergenceReport`,
  :class:`SimulationReport`) carrying the fixed point, rounds/steps,
  churn, IPC counters, wall-clock timing, the engine resolution, and —
  for δ — the :class:`~repro.core.schedule.RandomSchedule` seed-mapping
  version the run's schedules assume.

:meth:`RoutingSession.resolve` is the only place a rung is chosen: the
σ/δ dispatch below it (``_iterate_sigma_resolved`` /
``_delta_run_resolved``) and the protocol simulator's σ-stability check
run whatever rung the session negotiated — a σ report's churn
included, which every rung counts as it iterates.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .core.algebra import PathAlgebra
from .core.asynchronous import AsyncResult, _delta_run_resolved
from .core.capabilities import (
    EngineResolution,
    LADDER,
    resolve_engine,
)
from .core.schedule import (
    CompiledSchedule,
    RandomSchedule,
    Schedule,
    schedule_zoo,
)
from .core.state import Network, RoutingState
from .core.synchronous import SyncResult, _iterate_sigma_resolved
from .core.wire import WireStats

#: compiled schedules one session keeps, least recently used evicted
#: first — above the distinct-schedule count of any grid the repository
#: reuses (a ``schedule_zoo`` has 9), so repeated grids still hit.
SCHEDULE_CACHE_SIZE = 32


def schedule_seed_version(schedules) -> Optional[int]:
    """The :data:`~repro.core.schedule.RandomSchedule.SCHEDULE_SEED_VERSION`
    a run's schedules assume, or ``None`` when no schedule derives its
    draws from a seed (structured schedules denote the same schedule
    under every version).  Compiled wrappers are unwrapped to their
    source.
    """
    for sched in schedules:
        if isinstance(sched, CompiledSchedule):
            sched = sched.source
        if isinstance(sched, RandomSchedule):
            return RandomSchedule.SCHEDULE_SEED_VERSION
    return None


@dataclass(frozen=True)
class EngineSpec:
    """How a session wants its engines resolved.

    ``engine`` is a ladder rung name or ``"auto"`` (grids start the
    negotiation at the batched rung, single δ runs at the vectorized
    rung, σ at the parallel rung, each falling down the ladder as
    capabilities require).
    ``strict=True`` turns any fallback from a concrete request into an
    :class:`~repro.core.capabilities.UnsupportedEngineError` carrying
    the reason chain.  ``workers`` sizes the parallel pool.

    The remote rung needs a transport: ``endpoints`` (``"host:port"``
    strings or ``(host, port)`` pairs, one shard each) or
    ``remote_workers`` (spawn that many loopback subprocess workers —
    the single-host testing mode).  Without either, ``engine="remote"``
    resolves with the ``no-remote-endpoints`` skip (or raises under
    ``strict``).  ``socket_timeout`` bounds every coordinator socket
    operation so a dead worker surfaces as a typed
    :class:`~repro.core.remote.RemoteWorkerError`, never a hang.

    A non-strict remote session *supervises* its workers: shard faults
    are healed (respawn / reconnect / re-shard, bounded retries; dead
    endpoints are parked on probation and re-admitted when a liveness
    probe succeeds — ``endpoint-probation`` / ``endpoint-rejoined``)
    and reported as :class:`~repro.core.capabilities.DegradedEvent`
    entries on the run report's ``degraded`` field; δ runs checkpoint
    at window barriers so a heal replays O(window) steps, not the whole
    run.  ``strict=True`` disables healing and surfaces the original
    typed error immediately.
    ``fault_plan`` (a :class:`~repro.core.faults.FaultPlan`, its dict
    form, or a JSON string) deterministically injects frame-level
    faults into the coordinator's connections for chaos testing.
    """

    engine: str = "auto"
    workers: Optional[int] = None
    strict: bool = False
    remote_workers: Optional[int] = None
    endpoints: Optional[Tuple] = None
    socket_timeout: Optional[float] = None
    #: seeded :class:`~repro.core.faults.FaultPlan` (or its JSON/dict
    #: form) injected into the remote rung's coordinator-side
    #: connections — chaos testing; ``None`` (default) injects nothing
    fault_plan: Optional[object] = None

    def __post_init__(self):
        if self.engine != "auto" and self.engine not in LADDER:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from "
                f"{('auto',) + LADDER}")
        if self.endpoints is not None:
            object.__setattr__(self, "endpoints", tuple(self.endpoints))
        if self.socket_timeout is not None and self.socket_timeout <= 0:
            raise ValueError("socket_timeout must be positive")

    @property
    def remote_transport(self):
        """What :func:`~repro.core.capabilities.resolve_engine` receives
        as the remote rung's transport (endpoints win over a loopback
        worker count); ``None`` when no transport is configured."""
        return self.endpoints or self.remote_workers


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


@dataclass
class SigmaReport:
    """Outcome of :meth:`RoutingSession.sigma`."""

    converged: bool
    rounds: int                       #: σ applications to reach the result
    state: RoutingState               #: final state reached
    resolution: EngineResolution      #: which rung ran, and why
    elapsed_s: float                  #: wall-clock seconds
    trajectory: Optional[List[RoutingState]] = field(default=None, repr=False)
    churn: int = 0                    #: total entry changes over the run
    #: remote rung: per-run wire traffic (bytes/round, compression ratio)
    wire: Optional[WireStats] = field(default=None, repr=False)
    #: remote rung: healing events this run survived (empty = clean run)
    degraded: Optional[Tuple] = None
    result: SyncResult = field(default=None, repr=False)

    @property
    def fixed_point(self) -> RoutingState:
        if not self.converged:
            raise ValueError("iteration did not converge; no fixed point")
        return self.state


@dataclass
class DeltaReport:
    """Outcome of :meth:`RoutingSession.delta`."""

    converged: bool
    steps: int                        #: total δ steps simulated
    state: RoutingState               #: state at the final step
    resolution: EngineResolution
    elapsed_s: float
    converged_at: Optional[int] = None  #: first step the state stayed fixed
    history: Optional[List[RoutingState]] = field(default=None, repr=False)
    history_retained: Optional[int] = None  #: states actually held in memory
    ipc_commands: Optional[int] = None  #: remote: worker commands sent
    ipc_steps: Optional[int] = None     #: remote: δ steps they carried
    #: remote rung: per-run wire traffic (bytes/round, compression ratio)
    wire: Optional[WireStats] = field(default=None, repr=False)
    #: remote rung: healing events this run survived (empty = clean run)
    degraded: Optional[Tuple] = None
    #: seed → schedule mapping version the run's schedule assumes
    #: (:data:`~repro.core.schedule.RandomSchedule.SCHEDULE_SEED_VERSION`),
    #: ``None`` for seed-free schedules.
    schedule_seed_version: Optional[int] = None
    result: AsyncResult = field(default=None, repr=False)

    @property
    def fixed_point(self) -> RoutingState:
        if not self.converged:
            raise ValueError("δ run did not converge; no fixed point")
        return self.state

    @property
    def metadata(self) -> Dict[str, Any]:
        """Machine-readable run metadata for recorded experiments."""
        meta = {
            "engine": self.resolution.chosen,
            "schedule_seed_version": self.schedule_seed_version,
            "ipc_commands": self.ipc_commands,
            "ipc_steps": self.ipc_steps,
        }
        if self.wire is not None:
            meta["wire"] = self.wire.as_dict()
        if self.degraded:
            meta["degraded"] = [ev.as_dict() for ev in self.degraded]
        return meta


@dataclass
class GridReport:
    """Outcome of :meth:`RoutingSession.delta_grid` — the Definition 8
    absolute-convergence quantity over a (schedule, start) trial grid."""

    runs: int
    all_converged: bool
    distinct_fixed_points: List[RoutingState]
    convergence_steps: List[int]
    resolution: EngineResolution
    elapsed_s: float
    schedule_seed_version: Optional[int] = None
    #: remote rung: wire traffic summed over the whole grid
    wire: Optional[WireStats] = field(default=None, repr=False)
    #: remote rung: healing events over the whole grid (empty = clean)
    degraded: Optional[Tuple] = None
    results: Optional[List[AsyncResult]] = field(default=None, repr=False)

    @property
    def absolute(self) -> bool:
        """True when every run converged to one common fixed point."""
        return self.all_converged and len(self.distinct_fixed_points) == 1

    @property
    def max_steps(self) -> int:
        return max(self.convergence_steps) if self.convergence_steps else 0

    @property
    def mean_steps(self) -> float:
        if not self.convergence_steps:
            return 0.0
        return sum(self.convergence_steps) / len(self.convergence_steps)

    @property
    def metadata(self) -> Dict[str, Any]:
        """Machine-readable grid metadata for recorded experiments."""
        meta = {
            "engine": self.resolution.chosen,
            "schedule_seed_version": self.schedule_seed_version,
            "runs": self.runs,
        }
        if self.wire is not None:
            meta["wire"] = self.wire.as_dict()
        if self.degraded:
            meta["degraded"] = [ev.as_dict() for ev in self.degraded]
        return meta


@dataclass
class ConvergenceReport:
    """Outcome of :meth:`RoutingSession.converges`: the sampled
    Theorem 7/11 experiment, optionally tied back to the paper's
    sufficient conditions."""

    absolute: bool                    #: one fixed point across the grid
    grid: GridReport                  #: the underlying experiment
    #: which theorem (if any) the verified laws deliver — only when the
    #: session ran the law suite (``verify=True``)
    guarantee: Optional[str] = None
    law_report: Optional[object] = field(default=None, repr=False)

    @property
    def runs(self) -> int:
        return self.grid.runs

    @property
    def distinct_fixed_points(self) -> List[RoutingState]:
        return self.grid.distinct_fixed_points

    @property
    def resolution(self) -> EngineResolution:
        return self.grid.resolution


@dataclass
class ReplayStep:
    """One measured phase of :meth:`RoutingSession.replay`: the σ
    re-convergence after a batch of topology mutations landed."""

    label: str                        #: phase label ("initial", "link-down", ...)
    mutations: int                    #: mutations applied before this solve
    version: int                      #: adjacency version the solve ran at
    converged: bool
    rounds: int                       #: σ rounds to re-converge
    churn: int                        #: entry changes during re-convergence
    elapsed_s: float
    state: RoutingState = field(default=None, repr=False)


@dataclass
class ReplayReport:
    """Outcome of :meth:`RoutingSession.replay`: per-event convergence
    and churn over a timed mutation stream (the scenario harness's
    measurement primitive)."""

    steps: List[ReplayStep]
    resolution: EngineResolution
    elapsed_s: float

    @property
    def all_converged(self) -> bool:
        return all(step.converged for step in self.steps)

    @property
    def total_churn(self) -> int:
        """Entry changes summed over every post-mutation re-convergence
        (the initial solve is establishment, not churn)."""
        return sum(step.churn for step in self.steps[1:])

    @property
    def total_rounds(self) -> int:
        """σ rounds summed over every post-mutation re-convergence
        (like :attr:`total_churn`, the initial solve is excluded)."""
        return sum(step.rounds for step in self.steps[1:])

    @property
    def final_state(self) -> RoutingState:
        if not self.steps[-1].converged:
            raise ValueError("replay did not re-converge; no fixed point")
        return self.steps[-1].state

    @property
    def phases(self) -> int:
        """Mutation phases replayed (excludes the initial solve)."""
        return len(self.steps) - 1


@dataclass
class SimulationReport:
    """Outcome of :meth:`RoutingSession.simulate`: the event-driven
    protocol run plus the negotiated σ-stability check."""

    result: object                    #: the protocol SimulationResult
    resolution: EngineResolution      #: rung used for the σ-check
    elapsed_s: float

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def final_state(self) -> RoutingState:
        return self.result.final_state

    @property
    def stats(self):
        return self.result.stats

    @property
    def trace(self):
        return self.result.trace

    @property
    def convergence_time(self) -> float:
        return self.result.convergence_time


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------


class RoutingSession:
    """One managed computation context over ``(algebra, adjacency)``.

    Construct from a :class:`~repro.core.state.Network` (which *is* the
    paper's pair) or from the parts::

        s = RoutingSession(net, EngineSpec("auto"))
        s = RoutingSession.from_parts(algebra, adjacency)

    The session is a context manager; leaving it (or calling
    :meth:`close`) releases every engine it built — in particular the
    parallel rung's worker processes and shared-memory segments.  A
    ``weakref.finalize`` backstop covers sessions that are simply
    dropped.  Topology mutation through the shared adjacency matrix is
    safe mid-session: the engines re-snapshot via ``adjacency.version``.
    """

    def __init__(self, network: Network, spec: Optional[EngineSpec] = None):
        if isinstance(spec, str):
            spec = EngineSpec(spec)
        self.network = network
        self.spec = spec or EngineSpec()
        self._engines: Dict[str, object] = {}
        #: id(schedule) → (schedule, compiled form), least recent first
        self._compiled: OrderedDict = OrderedDict()
        self._closed = False
        self._finalizer = weakref.finalize(self, _close_engines,
                                           self._engines)

    @classmethod
    def from_parts(cls, algebra, adjacency, spec: Optional[EngineSpec] = None,
                   name: str = "session") -> "RoutingSession":
        """Build a session over an existing adjacency matrix (shared
        live — mutations are seen by the session's engines)."""
        network = Network(algebra, adjacency.n, name=name)
        network.adjacency = adjacency
        return cls(network, spec)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release every engine the session built (idempotent)."""
        self._closed = True
        self._finalizer()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "RoutingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed; build a new one")

    # -- negotiation ----------------------------------------------------

    def resolve(self, op: str = "sigma", schedule: Optional[Schedule] = None,
                keep_history: bool = False,
                literal: bool = False) -> EngineResolution:
        """Negotiate the rung this session would use for ``op``.

        Public so callers (and the CLI) can inspect the reason chain
        without running anything; ``spec.strict`` applies here too.
        """
        return resolve_engine(self.network, self.spec.engine, op,
                              workers=self.spec.workers,
                              strict=self.spec.strict,
                              keep_history=keep_history, literal=literal,
                              schedule=schedule,
                              remote=self.spec.remote_transport)

    # -- managed engines ------------------------------------------------

    def _engine_obj(self, resolution: EngineResolution):
        """The managed engine instance for a resolution's rung (``None``
        for the object-model rungs)."""
        rung = resolution.chosen
        if rung in ("naive", "incremental"):
            return None
        eng = self._engines.get(rung)
        if eng is not None and \
                not eng.capabilities.supports_topology_mutation and \
                eng.stale_topology():
            # this rung's snapshot cannot follow topology mutations:
            # rebuild the engine (for remote: fresh connections, fresh
            # worker-side snapshot)
            eng.close()
            del self._engines[rung]
            eng = None
        if eng is None:
            if rung == "vectorized":
                from .core.vectorized import VectorizedEngine
                eng = VectorizedEngine(self.network)
            elif rung == "batched":
                from .core.vectorized import BatchedVectorizedEngine
                eng = BatchedVectorizedEngine(self.network)
            elif rung == "remote":
                from .core.remote import RemoteVectorizedEngine
                eng = RemoteVectorizedEngine(
                    self.network, endpoints=self.spec.endpoints,
                    workers=self.spec.remote_workers,
                    socket_timeout=self.spec.socket_timeout,
                    strict=self.spec.strict,
                    fault_plan=self.spec.fault_plan)
            else:
                from .core.parallel import ParallelVectorizedEngine
                eng = ParallelVectorizedEngine(self.network,
                                               workers=resolution.workers)
            self._engines[rung] = eng
        return eng

    def _wire_snapshot(self, resolution: EngineResolution):
        """Per-run :class:`~repro.core.wire.WireStats` copy when the
        remote rung ran; ``None`` for every local rung."""
        if resolution.chosen != "remote":
            return None
        eng = self._engines.get("remote")
        return eng.wire_stats.copy() if eng is not None else None

    def _degraded_snapshot(self, resolution: EngineResolution):
        """Per-run tuple of
        :class:`~repro.core.capabilities.DegradedEvent` when the remote
        rung ran (empty for a clean run); ``None`` for local rungs."""
        if resolution.chosen != "remote":
            return None
        eng = self._engines.get("remote")
        return tuple(eng.degraded) if eng is not None else None

    def compile_schedule(self, schedule: Schedule,
                         horizon: int) -> CompiledSchedule:
        """The session-cached compiled form of ``schedule`` (recompiled
        only when a longer horizon is requested).  The cache is an LRU of
        :data:`SCHEDULE_CACHE_SIZE` entries, so a long-lived session
        running fresh schedules holds bounded memory."""
        key = id(schedule)
        entry = self._compiled.get(key)
        if entry is not None and entry[1].horizon >= horizon:
            self._compiled.move_to_end(key)
            return entry[1]
        comp = CompiledSchedule.ensure(schedule, horizon)
        # the schedule object is retained alongside so the id() key can
        # never be recycled by the allocator while its entry is alive
        self._compiled[key] = (schedule, comp)
        self._compiled.move_to_end(key)
        if len(self._compiled) > SCHEDULE_CACHE_SIZE:
            self._compiled.popitem(last=False)
        return comp

    # -- σ ---------------------------------------------------------------

    def sigma(self, start: Optional[RoutingState] = None, *,
              max_rounds: int = 10_000, keep_trajectory: bool = False,
              detect_cycles: bool = False) -> SigmaReport:
        """Iterate σ to a fixed point; returns a :class:`SigmaReport`.

        ``start`` defaults to the identity matrix (the clean start).
        ``detect_cycles`` stops early on a repeated state (limit
        cycle), reporting ``converged=False``.  The report's ``churn``
        is the total entry changes over the run, counted on the
        negotiated rung as it iterates (changed columns on the codes
        rungs, the dirty sets on ``incremental``, a per-round entry
        compare on ``naive``) — no trajectory is kept for it.
        """
        self._check_open()
        net = self.network
        if start is None:
            start = RoutingState.identity(net.algebra, net.n)
        resolution = self.resolve("sigma")
        t0 = perf_counter()
        result = _iterate_sigma_resolved(
            net, start, resolution.chosen, max_rounds=max_rounds,
            keep_trajectory=keep_trajectory, detect_cycles=detect_cycles,
            engine_obj=self._engine_obj(resolution))
        return SigmaReport(
            converged=result.converged, rounds=result.rounds,
            state=result.state, resolution=resolution,
            elapsed_s=perf_counter() - t0, trajectory=result.trajectory,
            churn=result.churn,
            wire=self._wire_snapshot(resolution),
            degraded=self._degraded_snapshot(resolution), result=result)

    # -- δ ---------------------------------------------------------------

    def delta(self, schedule: Schedule,
              start: Optional[RoutingState] = None, *,
              max_steps: int = 2_000, stability_window: Optional[int] = None,
              keep_history: bool = False,
              strict: bool = False) -> DeltaReport:
        """Run δ under ``schedule``; returns a :class:`DeltaReport`.

        ``keep_history=True`` retains and returns every state;
        ``strict=True`` runs the literal paper recursion (the naive
        rung).
        """
        self._check_open()
        net = self.network
        _check_schedule_size(schedule, net)
        if start is None:
            start = RoutingState.identity(net.algebra, net.n)
        resolution = self.resolve("delta", schedule=schedule,
                                  keep_history=keep_history, literal=strict)
        t0 = perf_counter()
        result = _delta_run_resolved(
            net, schedule, start, resolution.chosen, max_steps=max_steps,
            stability_window=stability_window, keep_history=keep_history,
            engine_obj=self._engine_obj(resolution))
        ipc_commands = ipc_steps = None
        if resolution.chosen == "remote":
            eng = self._engines.get("remote")
            if eng is not None:
                ipc_commands = eng.delta_ipc_commands
                ipc_steps = eng.delta_ipc_steps
        return DeltaReport(
            converged=result.converged, steps=result.steps,
            state=result.state, resolution=resolution,
            elapsed_s=perf_counter() - t0,
            converged_at=result.converged_at, history=result.history,
            history_retained=result.history_retained,
            ipc_commands=ipc_commands, ipc_steps=ipc_steps,
            schedule_seed_version=schedule_seed_version([schedule]),
            wire=self._wire_snapshot(resolution),
            degraded=self._degraded_snapshot(resolution), result=result)

    def delta_grid(self, trials: Sequence[Tuple[Schedule, RoutingState]], *,
                   max_steps: int = 2_000,
                   stability_window: Optional[int] = None,
                   batch_size: Optional[int] = 64,
                   keep_results: bool = False) -> GridReport:
        """Run δ for every ``(schedule, start)`` trial as one negotiated
        workload; returns a :class:`GridReport`.

        The vectorized, parallel and batched rungs run the
        session-compiled schedules through the engine's
        :meth:`~repro.core.vectorized.VectorizedEngine.delta_grid`: the
        batched rung stacks the grid into one ``(B, n, n)`` tensor
        (``batch_size`` chunks the batch axis), the other two run one
        trial per call.  The remote and object rungs loop trials against
        one shared engine.  ``keep_results`` retains the per-trial
        :class:`~repro.core.asynchronous.AsyncResult` list on the
        report.

        On the in-process codes rungs a trial whose schedule declares
        no staleness bound runs against its derived bound.  The remote
        workers cannot take such a schedule (their history rings are
        sized from the declared bound): a remote trial delegates to the
        in-process step — unless the spec is ``strict``, in which case
        it raises :class:`~repro.core.capabilities.UnsupportedEngineError`
        exactly as :meth:`delta` would.
        """
        self._check_open()
        net = self.network
        trials = list(trials)
        for sched, _start in trials:
            _check_schedule_size(sched, net)
        resolution = self.resolve("grid")
        t0 = perf_counter()
        results: List[AsyncResult] = []
        wire_base = None
        degraded_base = None
        eng = self._engine_obj(resolution)
        if resolution.chosen == "remote" and trials:
            # snapshot the engine's monotonic totals so the report can
            # carry exactly this grid's traffic (per-run wire_stats
            # resets on every trial); ditto the healing-event log
            wire_base = eng.wire_totals.copy()
            degraded_base = len(eng.degraded_total)
        if resolution.chosen in ("vectorized", "parallel", "batched"):
            # trials repeat schedules across starts: compile once
            compiled = [(self.compile_schedule(sched, max_steps), start)
                        for (sched, start) in trials]
            chunk = 1
            if resolution.chosen == "batched":
                chunk = max(1, int(batch_size or len(compiled)))
            for lo in range(0, len(compiled), chunk):
                results.extend(eng.delta_grid(
                    compiled[lo:lo + chunk], max_steps=max_steps,
                    stability_window=stability_window))
        else:
            for sched, start in trials:
                if resolution.chosen == "remote" and self.spec.strict:
                    # strict means no per-trial exception to the rung's
                    # δ policy either: re-negotiate the trial as a single
                    # δ run, which raises with the exact
                    # unbounded-schedule chain
                    self.resolve("delta", schedule=sched)
                results.append(_delta_run_resolved(
                    net, sched, start, resolution.chosen,
                    max_steps=max_steps, stability_window=stability_window,
                    engine_obj=eng))
        alg = net.algebra
        fixed_points: List[RoutingState] = []
        steps: List[int] = []
        all_converged = True
        for res in results:
            if not res.converged:
                all_converged = False
                continue
            steps.append(res.converged_at or res.steps)
            if not any(res.state.equals(fp, alg) for fp in fixed_points):
                fixed_points.append(res.state)
        wire = None
        degraded = None
        if wire_base is not None:
            eng = self._engines.get("remote")
            if eng is not None:
                wire = eng.wire_totals - wire_base
                degraded = tuple(eng.degraded_total[degraded_base:])
        return GridReport(
            runs=len(trials), all_converged=all_converged,
            distinct_fixed_points=fixed_points, convergence_steps=steps,
            resolution=resolution, elapsed_s=perf_counter() - t0,
            schedule_seed_version=schedule_seed_version(
                [sched for (sched, _start) in trials]),
            wire=wire, degraded=degraded,
            results=results if keep_results else None)

    # -- event replay ----------------------------------------------------

    def replay(self, phases, *, start: Optional[RoutingState] = None,
               max_rounds: int = 10_000) -> ReplayReport:
        """Replay a timed mutation stream, measuring re-convergence
        after every phase; returns a :class:`ReplayReport`.

        ``phases`` is an iterable whose items are either *phase*
        objects (duck-typed: ``.label`` plus ``.mutations``, each
        mutation applying itself via ``mutation.apply(network)``) or
        callables ``(network, fixed_point) -> iterable of phases`` —
        the lazy form state-dependent events (``del-best-route``)
        compile through, since their mutations depend on the topology
        and fixed point left behind by earlier phases.

        The session first solves the unmodified topology (the
        ``"initial"`` step), then for each phase applies its mutations
        to the shared adjacency — bumping ``adjacency.version``, so the
        incremental engines see exactly the dirty entries — and
        re-solves σ *warm-started from the previous fixed point*,
        counting the entry changes of each re-convergence.
        """
        self._check_open()
        t0 = perf_counter()
        report = self.sigma(start, max_rounds=max_rounds)
        steps = [ReplayStep(
            label="initial", mutations=0,
            version=self.network.adjacency.version,
            converged=report.converged, rounds=report.rounds,
            churn=report.churn, elapsed_s=report.elapsed_s,
            state=report.state)]
        resolution = report.resolution
        for item in phases:
            compiled = item(self.network, steps[-1].state) \
                if callable(item) else [item]
            for phase in compiled:
                for mutation in phase.mutations:
                    mutation.apply(self.network)
                report = self.sigma(steps[-1].state, max_rounds=max_rounds)
                steps.append(ReplayStep(
                    label=phase.label, mutations=len(phase.mutations),
                    version=self.network.adjacency.version,
                    converged=report.converged, rounds=report.rounds,
                    churn=report.churn, elapsed_s=report.elapsed_s,
                    state=report.state))
                resolution = report.resolution
        return ReplayReport(steps=steps, resolution=resolution,
                            elapsed_s=perf_counter() - t0)

    # -- experiments -----------------------------------------------------

    def converges(self, n_starts: int = 5,
                  schedules: Optional[Sequence[Schedule]] = None,
                  seed: int = 0, max_steps: int = 2_000, *,
                  verify: bool = False,
                  samples: int = 40) -> ConvergenceReport:
        """The Theorem 7/11 absolute-convergence experiment with
        sensible defaults; returns a :class:`ConvergenceReport`.

        Samples ``n_starts`` arbitrary states (plus the clean start)
        against the schedule zoo and runs the full grid.  With
        ``verify=True`` the algebra laws are additionally checked
        against the installed edges and mapped onto the paper's
        theorems (``report.guarantee``).
        """
        self._check_open()
        net = self.network
        if schedules is None:
            schedules = schedule_zoo(net.n, seeds=(seed, seed + 17))
        from .analysis.convergence import sample_starts
        starts = sample_starts(net, n_starts, seed=seed)
        grid = self.delta_grid(
            [(sched, start) for start in starts for sched in schedules],
            max_steps=max_steps)
        guarantee = law_report = None
        if verify:
            from .verification import convergence_guarantee, verify_network
            law_report = verify_network(net, samples=samples)
            guarantee = convergence_guarantee(
                law_report,
                finite_carrier=bool(getattr(net.algebra, "is_finite",
                                            False)),
                path_algebra=isinstance(net.algebra, PathAlgebra))
        return ConvergenceReport(absolute=grid.absolute, grid=grid,
                                 guarantee=guarantee, law_report=law_report)

    def verify(self, samples: int = 40, rng=None):
        """Law-check the algebra against the installed edges (the
        Table 1 / P1–P3 suite); returns the
        :class:`~repro.verification.properties.AlgebraReport`."""
        self._check_open()
        from .verification import verify_network
        return verify_network(self.network, rng=rng, samples=samples)

    # -- protocol simulation --------------------------------------------

    def simulate(self, start: Optional[RoutingState] = None, *,
                 seed: int = 0, link_config=None,
                 refresh_interval: float = 10.0, quiet_period: float = 30.0,
                 max_time: float = 10_000.0) -> SimulationReport:
        """One event-driven protocol run
        (:class:`~repro.protocols.simulator.Simulator`); returns a
        :class:`SimulationReport`.

        The final σ-stability verdict runs on the session's negotiated
        stability engine (every codes rung takes a lone check: it is one
        round of the σ loop); the simulator borrows the session's
        managed engine instance and never closes it.
        """
        self._check_open()
        from .protocols.simulator import Simulator
        resolution = self.resolve("stability")
        t0 = perf_counter()
        sim = Simulator(self.network, seed=seed, link_config=link_config,
                        refresh_interval=refresh_interval,
                        quiet_period=quiet_period,
                        stability_engine=self._engine_obj(resolution))
        result = sim.run(start, max_time=max_time)
        return SimulationReport(result=result, resolution=resolution,
                                elapsed_s=perf_counter() - t0)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"RoutingSession({self.network!r}, "
                f"engine={self.spec.engine!r}, {state})")


def _check_schedule_size(schedule: Schedule, network: Network) -> None:
    """Refuse a schedule sized for a different network: every rung
    would otherwise fail differently (an index error, a broadcast
    error, or a run whose missing nodes never activate)."""
    if schedule.n != network.n:
        raise ValueError(
            f"schedule is sized for {schedule.n} nodes but the network "
            f"has {network.n}")


def _close_engines(engines: Dict[str, object]) -> None:
    """Finalizer target: release every engine holding OS resources.

    Module-level (not a bound method) so the ``weakref.finalize`` hook
    never keeps the session alive.
    """
    for eng in engines.values():
        close = getattr(eng, "close", None)
        if close is not None:
            close()
    engines.clear()
