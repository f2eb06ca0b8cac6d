"""Convergence-rate experiments (Section 8.1).

The paper's companion work proves a tight O(n²) worst-case bound on the
number of synchronous iterations for increasing path algebras, versus
the classical O(n) for distributive ones.  These helpers run the sweep
(family of networks indexed by n → rounds-to-fixpoint) and fit the
growth exponent by log-log least squares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from ..core.state import Network
from .convergence import measure_sync


@dataclass
class RatePoint:
    """One point of a rate sweep."""

    n: int
    rounds: int
    churn: int


@dataclass
class RateSweep:
    """A full sweep plus the fitted growth exponent."""

    family: str
    points: List[RatePoint]

    @property
    def exponent(self) -> float:
        """Least-squares slope of log(rounds) against log(n).

        ~1.0 ⇒ linear growth, ~2.0 ⇒ quadratic.  Requires at least two
        points with rounds ≥ 1.
        """
        xs = [p.n for p in self.points if p.rounds >= 1]
        ys = [p.rounds for p in self.points if p.rounds >= 1]
        if len(xs) < 2:
            return float("nan")
        slope, _intercept = np.polyfit(np.log(xs), np.log(ys), 1)
        return float(slope)

    def table(self) -> str:
        lines = [f"family: {self.family}"]
        lines += [f"  n={p.n:<4d} rounds={p.rounds:<6d} churn={p.churn}"
                  for p in self.points]
        lines.append(f"  fitted exponent: {self.exponent:.2f}")
        return "\n".join(lines)


def rate_sweep(family: str, build: Callable[[int], Network],
               sizes: Sequence[int], max_rounds: int = 10_000) -> RateSweep:
    """Measure synchronous rounds-to-fixpoint across a family of sizes."""
    points = []
    for n in sizes:
        net = build(n)
        m = measure_sync(net, max_rounds=max_rounds)
        if not m.converged:
            raise RuntimeError(
                f"{family} n={n} did not converge within {max_rounds} rounds")
        points.append(RatePoint(n, m.rounds, m.changed_entries))
    return RateSweep(family, points)
