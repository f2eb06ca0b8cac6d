"""Fixed-point search: counting stable states.

Absolute convergence (Definition 8) says *one* stable state is reached
from everywhere.  Its failure modes are observable:

* multiple stable states — BGP wedgies (DISAGREE): which one you get
  depends on timing;
* no stable state — persistent oscillation (BAD GADGET).

Two search strategies:

* :func:`enumerate_fixed_points` — exhaustive, exploiting that σ acts
  column-wise: a state is stable iff every destination column is a
  stable column, so columns can be enumerated independently over a
  finite candidate-route set (for path algebras the consistent routes;
  for SPP gadgets the ranked paths).
* :func:`multistart_fixed_points` — sample starting states × schedules,
  run δ, and collect the distinct final states (the operational wedgie
  detector).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.algebra import PathAlgebra, Route
from ..core.asynchronous import random_state
from ..core.paths import enumerate_consistent_routes
from ..core.schedule import Schedule, schedule_zoo
from ..core.state import Network, RoutingState


def stable_columns(network: Network, dest: int,
                   candidates: Sequence[Route]) -> List[Tuple[Route, ...]]:
    """All stable columns for ``dest`` over per-node candidate routes.

    A column ``x`` (node → route towards ``dest``) is stable when

        x[dest] = 0̄   and   x[i] = ⨁_k A[i][k](x[k])   for i ≠ dest.
    """
    alg = network.algebra
    n = network.n
    pools: List[List[Route]] = []
    for i in range(n):
        if i == dest:
            pools.append([alg.trivial])
        else:
            pool = list(candidates)
            if not any(alg.equal(r, alg.invalid) for r in pool):
                pool.append(alg.invalid)
            pools.append(pool)
    stable: List[Tuple[Route, ...]] = []
    for column in itertools.product(*pools):
        ok = True
        for i in range(n):
            if i == dest:
                continue
            recomputed = alg.best(
                network.edge(i, k)(column[k])
                for k in network.neighbours_in(i))
            if not alg.equal(recomputed, column[i]):
                ok = False
                break
        if ok:
            stable.append(column)
    return stable


@dataclass
class FixedPointCensus:
    """Exhaustive count of stable states."""

    per_destination: Dict[int, int]
    columns: Dict[int, List[Tuple[Route, ...]]] = field(repr=False,
                                                        default_factory=dict)

    @property
    def total(self) -> int:
        """Number of stable global states (product over destinations)."""
        total = 1
        for count in self.per_destination.values():
            total *= count
        return total


def enumerate_fixed_points(network: Network,
                           candidates: Optional[Dict[int, Sequence[Route]]] = None,
                           dests: Optional[Sequence[int]] = None
                           ) -> FixedPointCensus:
    """Exhaustively count stable states.

    ``candidates`` maps destination → candidate routes for that column;
    when omitted and the algebra is a path algebra, the per-destination
    consistent routes are used (every stable state of a path algebra is
    consistent — Lemma 10's observation that X* cannot be inconsistent).
    """
    if dests is None:
        dests = range(network.n)
    per_dest: Dict[int, int] = {}
    columns: Dict[int, List[Tuple[Route, ...]]] = {}
    for d in dests:
        if candidates is not None and d in candidates:
            pool: Sequence[Route] = candidates[d]
        elif isinstance(network.algebra, PathAlgebra):
            pool = enumerate_consistent_routes(network.algebra, network, dest=d)
        else:
            if not network.algebra.is_finite:
                raise ValueError(
                    "exhaustive enumeration needs a finite candidate set; "
                    "pass `candidates` explicitly")
            pool = list(network.algebra.routes())
        cols = stable_columns(network, d, pool)
        per_dest[d] = len(cols)
        columns[d] = cols
    return FixedPointCensus(per_dest, columns)


@dataclass
class MultistartReport:
    """Distinct outcomes of δ from sampled (state, schedule) pairs."""

    runs: int
    converged_runs: int
    fixed_points: List[RoutingState]
    diverged: int

    @property
    def wedged(self) -> bool:
        """More than one reachable stable state — the wedgie condition."""
        return len(self.fixed_points) > 1


def multistart_fixed_points(network: Network, n_starts: int = 10,
                            schedules: Optional[Sequence[Schedule]] = None,
                            seed: int = 0, max_steps: int = 2_000,
                            include_identity_start: bool = True
                            ) -> MultistartReport:
    """Operational fixed-point search by running δ from many states."""
    alg = network.algebra
    rng = random.Random(seed)
    schedules = list(schedules) if schedules is not None else \
        schedule_zoo(network.n, seeds=(seed, seed + 1))
    starts: List[RoutingState] = []
    if include_identity_start:
        starts.append(RoutingState.identity(alg, network.n))
    for _ in range(n_starts):
        starts.append(random_state(alg, network.n, rng))

    from ..session import RoutingSession

    fixed_points: List[RoutingState] = []
    runs = converged = diverged = 0
    # one session for the whole grid: engines are negotiated once and
    # reused across every trial
    with RoutingSession(network) as session:
        for start in starts:
            for sched in schedules:
                runs += 1
                result = session.delta(sched, start,
                                       max_steps=max_steps).result
                if not result.converged:
                    diverged += 1
                    continue
                converged += 1
                if not any(result.state.equals(fp, alg)
                           for fp in fixed_points):
                    fixed_points.append(result.state)
    return MultistartReport(runs, converged, fixed_points, diverged)


def sync_oscillates(network: Network, start: Optional[RoutingState] = None,
                    max_rounds: int = 500) -> bool:
    """Does synchronous iteration enter a limit *cycle*?

    The BAD GADGET signature: a state repeats without being a fixed
    point.  Distinguished from unbounded divergence (count-to-infinity,
    where states never repeat): that case returns False here and is
    detected by ``RoutingSession.sigma(...).converged == False`` without an
    early cycle stop.
    """
    from ..session import RoutingSession

    if start is None:
        start = RoutingState.identity(network.algebra, network.n)
    with RoutingSession(network) as session:
        result = session.sigma(start, max_rounds=max_rounds,
                               detect_cycles=True)
    return not result.converged and result.rounds < max_rounds
