"""Bisimulation between routing algebras (Section 8.4, made executable).

The paper sketches how operations that do not fit the path-algebra mold
can still inherit convergence: exhibit a *bisimilar* algebra that does.
Algebra B is bisimilar to algebra A (over paired networks) when a
relation between their routes commutes with both σ's:

    X_A  ~  X_B    ⇒    σ_A(X_A)  ~  σ_B(X_B)

If A converges absolutely, every σ_B trajectory is then shadowed by a
σ_A trajectory, so B converges absolutely too — even if B itself lacks,
say, a lawful ``path`` function.

This module provides the checker: given two networks, a route
*abstraction* map ``project : route_A → route_B`` and a set of starting
states, :func:`check_bisimulation` verifies the commuting square on
live trajectories (a bounded, falsifiable version of the paper's
definition) and compares the projected fixed points.

The worked example from Section 8.4 — BGP discarding router-level paths
at AS boundaries — lives in the tests and the prepending module:
``PrependingBGPAlgebra`` (raw padded paths) projects onto ``BGPLite``
(stripped paths) by :func:`repro.algebras.prepending.strip_padding`,
and the square commutes whenever no policy *reads* the padding — the
paper's "did not let policies make decisions based on this extra
information" proviso, stated as a checkable condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.algebra import Route
from ..core.state import Network, RoutingState
from ..core.synchronous import _iterate_sigma_resolved, sigma


def project_state(project: Callable[[Route], Route],
                  state: RoutingState) -> RoutingState:
    """Apply a route abstraction map entry-wise."""
    return RoutingState([[project(state.get(i, j))
                          for j in range(state.n)]
                         for i in range(state.n)])


@dataclass
class BisimulationReport:
    """Outcome of a bounded bisimulation check."""

    rounds_checked: int
    trajectories: int
    commutes: bool
    fixed_points_match: Optional[bool]
    counterexample: Optional[tuple] = field(default=None, repr=False)

    def __bool__(self) -> bool:
        return self.commutes and (self.fixed_points_match is not False)


def check_bisimulation(concrete: Network, abstract: Network,
                       project: Callable[[Route], Route],
                       starts: Sequence[RoutingState],
                       rounds: int = 10,
                       compare_fixed_points: bool = True
                       ) -> BisimulationReport:
    """Check ``project ∘ σ_concrete = σ_abstract ∘ project`` on trajectories.

    ``starts`` are states of the *concrete* network; each is iterated
    ``rounds`` times while the commuting square is checked per round.
    With ``compare_fixed_points`` the σ fixed points (from the identity
    start) are also compared under the projection.
    """
    if concrete.n != abstract.n:
        raise ValueError("bisimilar networks must have equal node counts")
    alg_b = abstract.algebra
    counterexample = None
    commutes = True
    checked = 0
    for start in starts:
        x_a = start
        x_b = project_state(project, start)
        for _round in range(rounds):
            x_a = sigma(concrete, x_a)
            x_b = sigma(abstract, x_b)
            checked += 1
            projected = project_state(project, x_a)
            if not projected.equals(x_b, alg_b):
                commutes = False
                counterexample = (start, _round, projected, x_b)
                break
        if not commutes:
            break

    fps_match: Optional[bool] = None
    if compare_fixed_points:
        fa = _iterate_sigma_resolved(
            concrete, RoutingState.identity(concrete.algebra, concrete.n),
            "incremental")
        fb = _iterate_sigma_resolved(
            abstract, RoutingState.identity(alg_b, abstract.n),
            "incremental")
        if fa.converged and fb.converged:
            fps_match = project_state(project, fa.state).equals(
                fb.state, alg_b)
        else:
            fps_match = False
    return BisimulationReport(rounds, len(starts), commutes, fps_match,
                              counterexample)


def inherited_convergence(report: BisimulationReport,
                          abstract_guarantee: str) -> str:
    """Phrase the Section 8.4 inheritance argument for a report."""
    if not report:
        return ("no inheritance: the bisimulation square failed "
                f"({'fixed points differ' if report.commutes else 'σ does not commute with the projection'})")
    return (f"convergence inherited through bisimulation: the abstract "
            f"algebra's guarantee [{abstract_guarantee}] transfers to the "
            f"concrete protocol")
