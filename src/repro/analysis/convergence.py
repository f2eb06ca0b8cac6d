"""Convergence measurement utilities used by the benches.

Thin, well-documented wrappers that turn the session facade into the
experiment rows the paper's claims translate to:

* synchronous rounds-to-fixed-point (the Section 8.1 quantity);
* asynchronous steps-to-convergence per schedule;
* full absolute-convergence experiments over sampled (state, schedule)
  grids, with negative-control support.

Everything here delegates to :class:`repro.session.RoutingSession`
(whose :meth:`~repro.session.RoutingSession.converges` runs the full
absolute-convergence grid).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from ..core.asynchronous import random_state
from ..core.state import Network, RoutingState


@dataclass
class SyncMeasurement:
    """Synchronous convergence measurement from one start."""

    converged: bool
    rounds: int
    changed_entries: int          #: total entry changes over the run


def measure_sync(network: Network, start: Optional[RoutingState] = None,
                 max_rounds: int = 10_000) -> SyncMeasurement:
    """Iterate σ and measure rounds + churn.

    Delegates to :meth:`repro.session.RoutingSession.sigma`, whose
    report carries the churn: the negotiated rung counts entry changes
    as it iterates (changed code columns on finite algebras, dirty
    sets on the incremental rung), so no trajectory is materialised.
    """
    from ..session import RoutingSession

    with RoutingSession(network) as session:
        report = session.sigma(start, max_rounds=max_rounds)
    return SyncMeasurement(report.converged, report.rounds, report.churn)


def sample_starts(network: Network, n_starts: int, seed: int = 0,
                  include_identity: bool = True) -> List[RoutingState]:
    """Arbitrary starting states (plus the clean start) for experiments."""
    rng = random.Random(seed)
    starts: List[RoutingState] = []
    if include_identity:
        starts.append(RoutingState.identity(network.algebra, network.n))
    for _ in range(n_starts):
        starts.append(random_state(network.algebra, network.n, rng))
    return starts
