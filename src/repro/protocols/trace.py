"""Execution traces and schedule extraction.

The simulator records every table change and every activation.  From
the activation log we can *extract* the Üresin–Dubois schedule that the
run realised — each recompute becomes one discrete time step ``t`` with
``α(t) = {node}`` and ``β(t, node, k)`` the generation step of the
cached data used — giving an executable proof that the event-driven
protocol is an instance of the paper's δ model (tests check S2 on every
extracted witness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.algebra import Route


@dataclass(frozen=True)
class TableChange:
    """One routing-table update."""

    time: float
    step: int
    node: int
    dest: int
    old: Route
    new: Route


@dataclass(frozen=True)
class Activation:
    """One node recompute, with its β witness."""

    time: float
    step: int                      #: global activation step (discrete time)
    node: int
    dest: int
    betas: Tuple[Tuple[int, int], ...]  #: ((neighbour, gen_step), ...)
    changed: bool


@dataclass
class MessageStats:
    """Channel-pathology accounting for one run."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    duplicated: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"sent": self.sent, "delivered": self.delivered,
                "lost": self.lost, "duplicated": self.duplicated}


@dataclass
class Trace:
    """Everything observed during a simulation run."""

    changes: List[TableChange] = field(default_factory=list)
    activations: List[Activation] = field(default_factory=list)
    stats: MessageStats = field(default_factory=MessageStats)

    # -- convenience queries ------------------------------------------------

    @property
    def last_change_time(self) -> float:
        return self.changes[-1].time if self.changes else 0.0

    @property
    def total_changes(self) -> int:
        return len(self.changes)

    def changes_for(self, node: int) -> List[TableChange]:
        return [c for c in self.changes if c.node == node]

    def convergence_time(self) -> float:
        """Time of the last table change — the operational convergence time."""
        return self.last_change_time

    # -- schedule extraction ---------------------------------------------------

    def check_schedule_axioms(self) -> List[str]:
        """Validate the extracted (α, β) witness.

        * S2: every β value must precede the activation's own step.
        * monotonicity of steps (an artefact check on the trace itself).

        S1/S3 are liveness properties of *infinite* schedules; a finite
        prefix cannot falsify them, so they are not checked here.
        """
        problems: List[str] = []
        prev_step = 0
        for act in self.activations:
            if act.step <= prev_step:
                problems.append(f"non-monotone step at {act}")
            prev_step = act.step
            for (neighbour, gen) in act.betas:
                if gen >= act.step:
                    problems.append(
                        f"S2 violated: node {act.node} at step {act.step} used "
                        f"data generated by {neighbour} at step {gen}")
        return problems
