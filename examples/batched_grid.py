#!/usr/bin/env python3
"""A full absolute-convergence grid in one call.

Theorem 7 quantifies over *all* starting states and *all* admissible
schedules, so the experiment that tests it (Definition 8) is inherently
a grid: (starting state × schedule) trials, each a full δ run.  Looping
that grid one trial at a time re-pays the per-step interpreter overhead
once per trial; ``RoutingSession.delta_grid`` on an in-process codes
rung (here ``engine="batched"``, which auto negotiation picks for
grids) stacks every trial into one history ring, precompiles each
distinct schedule once (:class:`repro.core.schedule.CompiledSchedule`
— α as bitmask rows, β as read-time arrays), and runs each δ step for
*all* trials per kernel invocation, with finished trials dropping out.

This example runs the same trials as a loop of single δ runs and as
one grid, checks they agree trial for trial, and prints the wall-clock
ratio.

Run:  python examples/batched_grid.py
"""

from repro import EngineSpec, RoutingSession
from repro.algebras import HopCountAlgebra
from repro.core import (
    FixedDelaySchedule,
    RandomSchedule,
    RoutingState,
    SynchronousSchedule,
    random_state,
)
from repro.topologies import erdos_renyi, uniform_weight_factory


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A finite-algebra network and a (start × schedule) grid.
    # ------------------------------------------------------------------
    alg = HopCountAlgebra(bound=16)
    net = erdos_renyi(alg, 80, 0.2, uniform_weight_factory(alg, 1, 3),
                      seed=3)
    import random
    rng = random.Random(0)
    starts = [RoutingState.identity(alg, net.n)] + \
        [random_state(alg, net.n, rng) for _ in range(3)]
    schedules = [
        SynchronousSchedule(net.n),
        FixedDelaySchedule(net.n, delay=2),
        RandomSchedule(net.n, seed=0, activation_prob=0.4, max_delay=4),
        RandomSchedule(net.n, seed=1, activation_prob=0.8, max_delay=7),
    ]
    n_trials = len(starts) * len(schedules)
    print(f"network: {net.name} ({alg.name}), "
          f"grid: {len(starts)} starts x {len(schedules)} schedules "
          f"= {n_trials} trials\n")

    # ------------------------------------------------------------------
    # 2. The same experiment, two execution shapes (the reports carry
    #    their own wall-clock and engine resolution).
    # ------------------------------------------------------------------
    trials = [(sched, start) for start in starts for sched in schedules]
    with RoutingSession(net, EngineSpec("batched")) as s:
        per_trial = [s.delta(sched, start, max_steps=2000)
                     for sched, start in trials]
        batched = s.delta_grid(trials, max_steps=2000, keep_results=True)
    t_loop = sum(report.elapsed_s for report in per_trial)
    t_batched = batched.elapsed_s

    # ------------------------------------------------------------------
    # 3. Identical science, different wall clock.
    # ------------------------------------------------------------------
    for single, res in zip(per_trial, batched.results):
        assert (single.converged, single.converged_at, single.steps) == \
            (res.converged, res.converged_at, res.steps)
        assert single.state.equals(res.state, alg)

    print(f"per-trial delta loop      : {t_loop:8.3f} s "
          f"(engine={per_trial[0].resolution.chosen})")
    print(f"stacked grid              : {t_batched:8.3f} s "
          f"({t_loop / t_batched:.1f}x, "
          f"engine={batched.resolution.chosen}, "
          f"schedule seeds v{batched.schedule_seed_version})")
    print(f"absolute convergence      : {batched.absolute} "
          f"({batched.runs} runs, worst {batched.max_steps} steps, "
          f"{len(batched.distinct_fixed_points)} distinct fixed point)")

    # ------------------------------------------------------------------
    # 4. The convenience entry point samples its own grid.
    # ------------------------------------------------------------------
    with RoutingSession(net, EngineSpec("batched")) as s:
        report = s.converges(n_starts=3, seed=1, max_steps=2000)
    print(f"\nsession.converges(engine='batched'): "
          f"absolute={report.absolute}, runs={report.runs}, "
          f"mean steps {report.grid.mean_steps:.1f}")


if __name__ == "__main__":
    main()
