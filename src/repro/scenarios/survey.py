"""Scenario surveys: (topology × event × algebra) grids, oracle-checked.

One *cell* of a survey replays one event's mutation stream on one
topology under one algebra — measuring per-phase re-convergence and
churn through :meth:`~repro.session.RoutingSession.replay` — and then
runs a small (schedule × start) δ trial grid on the post-event topology
through the session's negotiated grid rung (the batched tensor engine
on finite algebras).

``oracle=True`` re-runs the whole cell on a second, independently built
network and requires bit-identical answers.  The reference replay runs
on the ``naive`` rung — the paper's literal recursion, the root of the
oracle chain, which shares no code with the incremental rung's columns
or the codes rungs' kernels — and every replay phase (label, mutations,
rounds, churn, fixed point) must match.  The reference grid runs trial
by trial on the ``incremental`` rung — the object-model engine, which
shares no code with the compiled-schedule δ step every codes rung runs
— and every grid trial (``converged``/``converged_at``/state) must
match.  That is the acceptance property — the batched grid results are
the per-trial session replay, exactly.

A failed cell never aborts the survey: it renders as ``FAIL`` in the
table, counts into ``report.failed``, and drives the CLI's nonzero
exit — the contract the CI ``scenario-survey`` job gates on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.asynchronous import random_state
from ..core.schedule import RandomSchedule
from ..session import EngineSpec, ReplayReport, RoutingSession
from .events import compile_event, event_seed
from .registry import build_scenario_network, scenario_events

__all__ = [
    "CellResult",
    "DEFAULT_ALGEBRAS",
    "DEFAULT_EVENTS",
    "SurveyReport",
    "replay_events",
    "run_cell",
    "run_survey",
]

#: Default survey algebras: both finite, so the trial grids negotiate
#: the batched tensor rung (the point of the survey machine).
DEFAULT_ALGEBRAS: Tuple[str, ...] = ("hop-count", "stratified-bounded")

DEFAULT_EVENTS: Tuple[str, ...] = (
    "link-flap", "node-failure", "link-weight-change", "policy-change",
    "del-best-route")


def replay_events(session: RoutingSession, events: Sequence, factory, *,
                  seed: int = 0, max_rounds: int = 10_000) -> ReplayReport:
    """Replay ``events`` through ``session`` with lazy compilation:
    each event compiles against the topology and fixed point left by
    its predecessors, seeded by :func:`~.events.event_seed`."""
    items = []
    for idx, ev in enumerate(events):
        items.append(lambda net, st, _ev=ev, _s=event_seed(seed, idx):
                     compile_event(_ev, net, factory, _s, state=st))
    return session.replay(items, max_rounds=max_rounds)


@dataclass
class CellResult:
    """One survey cell's outcome (or its failure)."""

    topology: str
    event: str
    algebra: str
    n: int = 0
    phases: int = 0
    replay_converged: bool = False
    total_churn: int = 0
    total_rounds: int = 0
    grid_runs: int = 0
    grid_all_converged: bool = False
    distinct_fixed_points: int = 0
    grid_engine: str = ""
    oracle_checked: bool = False
    oracle_ok: bool = False
    elapsed_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return (self.error is None and self.replay_converged
                and self.grid_all_converged
                and (self.oracle_ok or not self.oracle_checked))


def _grid_trials(algebra, n: int, seed: int, trials: int):
    """The cell's δ trial grid: seeded random schedules × seeded
    Theorem 7/11 arbitrary starts (deterministic, transport-free)."""
    return [(RandomSchedule(n, seed=seed + 101 * t),
             random_state(algebra, n, random.Random(seed + 211 * t)))
            for t in range(trials)]


def run_cell(topology: str, event: str, algebra: str, *, seed: int = 0,
             trials: int = 4, oracle: bool = False, engine: str = "auto",
             max_steps: int = 2_000) -> CellResult:
    """Run one survey cell; raises on broken configuration (the survey
    loop catches and records — see :func:`run_survey`)."""
    t0 = perf_counter()
    events = [scenario_events()[event]()]
    net, factory = build_scenario_network(topology, algebra, seed=seed)
    alg = net.algebra
    with RoutingSession(net, EngineSpec(engine)) as session:
        replay = replay_events(session, events, factory, seed=seed)
        trial_list = _grid_trials(alg, net.n, seed, trials)
        grid = session.delta_grid(trial_list, max_steps=max_steps,
                                  keep_results=oracle)
    oracle_ok = True
    if oracle:
        # independent rebuild: the replay again on naive, then the
        # per-trial δ runs the batched grid must equal on the
        # object-model rung, computed by code the grid's δ kernel does
        # not share
        net2, factory2 = build_scenario_network(topology, algebra,
                                                seed=seed)
        with RoutingSession(net2, EngineSpec("naive")) as ref:
            replay2 = replay_events(
                ref, [scenario_events()[event]()], factory2, seed=seed)
        oracle_ok = _replays_agree(replay, replay2, alg)
        with RoutingSession(net2, EngineSpec("incremental")) as ref:
            for (sched, start), res in zip(trial_list, grid.results or []):
                single = ref.delta(sched, start, max_steps=max_steps)
                oracle_ok = oracle_ok and (
                    single.converged == res.converged
                    and (single.converged_at or single.steps)
                        == (res.converged_at or res.steps)
                    and single.state.equals(res.state, alg))
    return CellResult(
        topology=topology, event=event, algebra=algebra, n=net.n,
        phases=replay.phases, replay_converged=replay.all_converged,
        total_churn=replay.total_churn, total_rounds=replay.total_rounds,
        grid_runs=grid.runs, grid_all_converged=grid.all_converged,
        distinct_fixed_points=len(grid.distinct_fixed_points),
        grid_engine=grid.resolution.chosen, oracle_checked=oracle,
        oracle_ok=oracle_ok, elapsed_s=perf_counter() - t0)


def _replays_agree(a: ReplayReport, b: ReplayReport, algebra) -> bool:
    """Phase-for-phase bit-identity of two replay transcripts."""
    if len(a.steps) != len(b.steps):
        return False
    for sa, sb in zip(a.steps, b.steps):
        if (sa.label, sa.mutations, sa.converged, sa.rounds, sa.churn) != \
                (sb.label, sb.mutations, sb.converged, sb.rounds, sb.churn):
            return False
        if not sa.state.equals(sb.state, algebra):
            return False
    return True


@dataclass
class SurveyReport:
    """A full survey grid: cells, failures, and the rendered table."""

    cells: List[CellResult]
    algebras: Tuple[str, ...]
    oracle: bool
    elapsed_s: float

    @property
    def failed(self) -> List[CellResult]:
        return [c for c in self.cells if not c.ok]

    def render_table(self) -> str:
        by_key = {(c.topology, c.event, c.algebra): c for c in self.cells}
        rows_keys = []
        for c in self.cells:
            key = (c.topology, c.event)
            if key not in rows_keys:
                rows_keys.append(key)

        def cell_text(c: Optional[CellResult]) -> str:
            if c is None:
                return "-"
            if not c.ok:
                return f"FAIL[{c.error or 'mismatch'}]"
            mark = "ok*" if c.oracle_checked else "ok"
            return f"{mark} ch={c.total_churn} r={c.total_rounds}"

        w_topo = max([len("topology")] + [len(t) for (t, _e) in rows_keys])
        w_event = max([len("event")] + [len(e) for (_t, e) in rows_keys])
        widths = []
        for alg in self.algebras:
            cells = [cell_text(by_key.get((t, e, alg)))
                     for (t, e) in rows_keys]
            widths.append(max([len(alg)] + [len(x) for x in cells]))
        lines = ["  ".join(
            [f"{'topology':<{w_topo}}", f"{'event':<{w_event}}"]
            + [f"{alg:<{w}}" for alg, w in zip(self.algebras, widths)])]
        for (topo, ev) in rows_keys:
            parts = [f"{topo:<{w_topo}}", f"{ev:<{w_event}}"]
            for alg, w in zip(self.algebras, widths):
                parts.append(
                    f"{cell_text(by_key.get((topo, ev, alg))):<{w}}")
            lines.append("  ".join(parts).rstrip())
        lines.append("")
        checked = sum(1 for c in self.cells if c.oracle_checked)
        lines.append(
            f"cells: {len(self.cells)}   failed: {len(self.failed)}   "
            f"oracle-checked: {checked}   elapsed: {self.elapsed_s:.1f}s")
        if self.oracle:
            lines.append("ok* = replay equal to naive's, grid equal to "
                         "per-trial incremental runs")
        return "\n".join(lines)


def run_survey(topologies: Optional[Sequence[str]] = None,
               events: Optional[Sequence[str]] = None,
               algebras: Optional[Sequence[str]] = None, *,
               seed: int = 0, trials: int = 4, oracle: bool = False,
               engine: str = "auto", max_steps: int = 2_000,
               progress: Optional[Callable[[CellResult], None]] = None
               ) -> SurveyReport:
    """Run the (topology × event × algebra) grid; a broken cell is
    recorded as a ``FAIL`` cell, never an aborted survey."""
    from .registry import scenario_topologies
    t0 = perf_counter()
    topologies = list(topologies) if topologies else \
        sorted(scenario_topologies())
    events = list(events) if events else list(DEFAULT_EVENTS)
    algebras = tuple(algebras) if algebras else DEFAULT_ALGEBRAS
    cells: List[CellResult] = []
    for topo in topologies:
        for ev in events:
            for alg in algebras:
                try:
                    cell = run_cell(topo, ev, alg, seed=seed,
                                    trials=trials, oracle=oracle,
                                    engine=engine, max_steps=max_steps)
                except Exception as exc:
                    cell = CellResult(topology=topo, event=ev, algebra=alg,
                                      error=f"{type(exc).__name__}: {exc}")
                cells.append(cell)
                if progress is not None:
                    progress(cell)
    return SurveyReport(cells=cells, algebras=algebras, oracle=oracle,
                        elapsed_s=perf_counter() - t0)
