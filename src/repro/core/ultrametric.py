"""Ultrametrics over routes and states (Sections 3.3, 4.1 and 5.2).

The convergence proof route of the paper (Figure 1) goes

    strictly increasing algebra
      ⇒ ultrametric conditions            (this module, executable)
      ⇒ ACO conditions                    (Üresin & Dubois)
      ⇒ absolute convergence of δ

An *ultrametric* is a distance ``d : S × S → ℕ`` with

* **M1** ``d(x, y) = 0  ⇔  x = y``
* **M2** ``d(x, y) = d(y, x)``
* **M3** ``d(x, z) ≤ max(d(x, y), d(y, z))``  (strong triangle inequality)

Theorem 4 then asks for three properties of the lifted state distance
``D(X, Y) = max_{ij} d(X[i][j], Y[i][j])``:

1. ``D`` is bounded,
2. σ is *strictly contracting on orbits*: ``X ≠ σ(X)`` implies
   ``D(X, σ(X)) > D(σ(X), σ²(X))``,
3. σ is *contracting on its fixed point*: ``X ≠ X*`` implies
   ``D(X*, X) ≥ D(X*, σ(X))``  (the paper notes only the fixed-point
   instance of the contraction property is ever used; Section 4 proves
   the strict version).

Two concrete constructions are provided:

* :class:`DistanceVectorUltrametric` — Section 4.1, for *finite*
  algebras: ``h(x) = |{y : x ≤ y}|`` and
  ``d(x, y) = 0 if x = y else max(h(x), h(y))``.
* :class:`PathVectorUltrametric` — Section 5.2, for path algebras with
  possibly-infinite carriers: consistent routes reuse the finite
  construction on ``S_c`` (``h_c``/``d_c``); inconsistent routes are
  measured by how short their (doomed) path still is
  (``h_i(x) = (n+1) - length(path(x))``, ``d_i = max`` of the heights),
  offset by ``H_c`` so that any inconsistency dominates every
  consistent disagreement.  (Figure 2 shows the structure.)

All axioms and contraction properties are *checkable* here — the
benches validate every lemma of Sections 4–5 on live data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import PathAlgebra, Route, RoutingAlgebra
from .paths import enumerate_consistent_routes, length
from .state import Network, RoutingState
from .synchronous import sigma


class RouteUltrametric:
    """Base class: a distance function over routes with an upper bound."""

    #: Upper bound on d (Definition 13); ``None`` when unbounded.
    bound: Optional[int] = None

    def distance(self, x: Route, y: Route) -> int:
        raise NotImplementedError

    # -- lifting to states (Lemma 3) -----------------------------------

    def state_distance(self, X: RoutingState, Y: RoutingState) -> int:
        """``D(X, Y) = max_{ij} d(X[i][j], Y[i][j])``."""
        if X.n != Y.n:
            raise ValueError("states must have equal dimension")
        return max(
            (self.distance(X.get(i, j), Y.get(i, j))
             for i in range(X.n) for j in range(X.n)),
            default=0,
        )


def route_heights(algebra: RoutingAlgebra,
                  carrier: Sequence[Route]) -> Tuple[Dict[Route, int], int]:
    """Compute ``h(x) = |{y : x ≤ y}|`` over a finite carrier (Section 4.1).

    Returns ``(heights, H)`` where ``H = h(0̄)`` is the maximum height.
    The invalid route gets the minimum height 1 and the trivial route
    the maximum ``H = |carrier|`` — matching
    ``1 = h(∞̄) ≤ h(x) ≤ h(0̄) = H``.

    Because ≤ is a total order (⊕ associative/commutative/selective),
    ``h`` is computed by sorting the carrier by preference once rather
    than comparing all pairs.

    Routes that are equal under the algebra's (possibly quotiented)
    equality are collapsed into one height class — mathematically the
    carrier is a set, and algebras such as lexicographic products or
    path lifts represent the invalid route by several denormalised
    values.
    """
    ordered = algebra.sort_routes(list(carrier))
    # group quotient-equal neighbours (⊕-selection sort emits them
    # consecutively) into classes
    classes: List[List[Route]] = []
    for r in ordered:
        if classes and algebra.equal(classes[-1][0], r):
            classes[-1].append(r)
        else:
            classes.append([r])
    heights: Dict[Route, int] = {}
    total = len(classes)
    for rank, cls in enumerate(classes):  # rank 0 = most preferred class
        for r in cls:
            heights[r] = total - rank
    return heights, total


class DistanceVectorUltrametric(RouteUltrametric):
    """The Section 4.1 ultrametric for finite algebras.

    ``d(x, y) = 0`` when ``x = y`` else ``max(h(x), h(y))`` — the
    distance between two distinct routes grows with how *desirable* the
    better one is, because disagreements about good routes propagate.
    """

    def __init__(self, algebra: RoutingAlgebra,
                 carrier: Optional[Sequence[Route]] = None):
        if carrier is None:
            if not algebra.is_finite:
                raise ValueError(
                    f"{algebra.name} has an infinite carrier; pass an explicit "
                    "finite carrier or use PathVectorUltrametric")
            carrier = list(algebra.routes())
        self.algebra = algebra
        self.heights, self.H = route_heights(algebra, carrier)
        self.bound = self.H

    def height(self, x: Route) -> int:
        try:
            return self.heights[x]
        except (KeyError, TypeError):
            raise KeyError(f"route {x!r} is not in the ultrametric's carrier")

    def distance(self, x: Route, y: Route) -> int:
        if self.algebra.equal(x, y):
            return 0
        return max(self.height(x), self.height(y))


class PathVectorUltrametric(RouteUltrametric):
    """The Section 5.2 ultrametric for (possibly infinite) path algebras.

    Built against a concrete *network* because both the consistent set
    ``S_c`` and the inconsistent height ``h_i`` depend on the topology
    (``S_c`` via ``weight``; ``h_i`` via the node count ``n``).
    """

    def __init__(self, network: Network):
        algebra = network.algebra
        if not isinstance(algebra, PathAlgebra):
            raise TypeError("PathVectorUltrametric requires a PathAlgebra")
        self.network = network
        self.algebra = algebra
        self.n = network.n
        consistent = enumerate_consistent_routes(algebra, network)
        self._consistent = consistent
        self.h_c, self.H_c = route_heights(algebra, consistent)
        self.H_i = self.n + 1
        self.bound = self.H_c + self.H_i

    # -- consistency ----------------------------------------------------

    def is_consistent(self, x: Route) -> bool:
        """Definition 15 membership test: ``weight(path(x)) == x``."""
        return self.algebra.is_consistent(x, self.network)

    # -- heights ----------------------------------------------------------

    def consistent_height(self, x: Route) -> int:
        """``h_c`` — height within the finite poset ``S_c``."""
        for r, h in self.h_c.items():
            if self.algebra.equal(r, x):
                return h
        raise KeyError(f"{x!r} is not a consistent route of this network")

    def inconsistent_height(self, x: Route) -> int:
        """``h_i(x) = 1`` if consistent else ``(n+1) - length(path(x))``.

        Shorter inconsistent paths are *taller*: each σ application
        forces every surviving inconsistent route to extend its path, so
        the shortest inconsistent path length strictly increases — the
        decreasing quantity that drives Lemma 9.
        """
        if self.is_consistent(x):
            return 1
        return (self.n + 1) - length(self.algebra.path(x))

    # -- distance -----------------------------------------------------------

    def distance(self, x: Route, y: Route) -> int:
        if self.algebra.equal(x, y):
            return 0
        if self.is_consistent(x) and self.is_consistent(y):
            return max(self.consistent_height(x), self.consistent_height(y))
        return self.H_c + max(self.inconsistent_height(x),
                              self.inconsistent_height(y))


# ----------------------------------------------------------------------
# Axiom / contraction checkers — the executable lemmas.
# ----------------------------------------------------------------------


@dataclass
class CheckOutcome:
    """Result of a property check with an optional counterexample."""

    name: str
    holds: bool
    cases: int
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


def check_ultrametric_axioms(metric: RouteUltrametric,
                             routes: Sequence[Route]) -> List[CheckOutcome]:
    """Check M1–M3 over all pairs/triples of ``routes`` (Lemma 5 & §5.2)."""
    eq = metric.algebra.equal
    d = metric.distance
    m1 = CheckOutcome("M1: d(x,y)=0 iff x=y", True, 0)
    m2 = CheckOutcome("M2: d(x,y)=d(y,x)", True, 0)
    m3 = CheckOutcome("M3: d(x,z) <= max(d(x,y),d(y,z))", True, 0)
    for x, y in itertools.product(routes, repeat=2):
        m1.cases += 1
        if (d(x, y) == 0) != eq(x, y):
            m1.holds, m1.counterexample = False, (x, y)
        m2.cases += 1
        if d(x, y) != d(y, x):
            m2.holds, m2.counterexample = False, (x, y)
    for x, y, z in itertools.product(routes, repeat=3):
        m3.cases += 1
        if d(x, z) > max(d(x, y), d(y, z)):
            m3.holds, m3.counterexample = False, (x, y, z)
    return [m1, m2, m3]


def check_bounded(metric: RouteUltrametric,
                  routes: Sequence[Route]) -> CheckOutcome:
    """Definition 13: every observed distance must respect the bound."""
    out = CheckOutcome(f"bounded by {metric.bound}", True, 0)
    if metric.bound is None:
        out.holds = False
        return out
    for x, y in itertools.product(routes, repeat=2):
        out.cases += 1
        if metric.distance(x, y) > metric.bound:
            out.holds, out.counterexample = False, (x, y)
    return out


def check_strictly_contracting(metric: RouteUltrametric, network: Network,
                               states: Sequence[RoutingState]) -> CheckOutcome:
    """Lemma 6: ``X ≠ Y ⇒ D(X, Y) > D(σ(X), σ(Y))`` over state pairs."""
    alg = network.algebra
    out = CheckOutcome("sigma strictly contracting over D", True, 0)
    for X, Y in itertools.combinations(states, 2):
        if X.equals(Y, alg):
            continue
        out.cases += 1
        before = metric.state_distance(X, Y)
        after = metric.state_distance(sigma(network, X), sigma(network, Y))
        if not before > after:
            out.holds, out.counterexample = False, (X, Y, before, after)
    return out


def check_strictly_contracting_on_orbits(metric: RouteUltrametric,
                                         network: Network,
                                         states: Sequence[RoutingState]) -> CheckOutcome:
    """Definition 11 / Lemma 9: ``X ≠ σX ⇒ D(X, σX) > D(σX, σ²X)``."""
    alg = network.algebra
    out = CheckOutcome("sigma strictly contracting on orbits", True, 0)
    for X in states:
        sX = sigma(network, X)
        if X.equals(sX, alg):
            continue
        out.cases += 1
        before = metric.state_distance(X, sX)
        after = metric.state_distance(sX, sigma(network, sX))
        if not before > after:
            out.holds, out.counterexample = False, (X, before, after)
    return out


def check_contracting_on_fixed_point(metric: RouteUltrametric, network: Network,
                                     fixed_point: RoutingState,
                                     states: Sequence[RoutingState],
                                     strict: bool = True) -> CheckOutcome:
    """Definition 12 / Lemma 10: ``X ≠ X* ⇒ D(X*, X) > D(X*, σX)``.

    Set ``strict=False`` for the ≥ form that Theorem 4 minimally needs.
    """
    alg = network.algebra
    name = "sigma strictly contracting on fixed point" if strict else \
        "sigma contracting on fixed point"
    out = CheckOutcome(name, True, 0)
    for X in states:
        if X.equals(fixed_point, alg):
            continue
        out.cases += 1
        before = metric.state_distance(fixed_point, X)
        after = metric.state_distance(fixed_point, sigma(network, X))
        ok = before > after if strict else before >= after
        if not ok:
            out.holds, out.counterexample = False, (X, before, after)
    return out


def theorem4_preconditions(metric: RouteUltrametric, network: Network,
                           states: Sequence[RoutingState],
                           routes: Sequence[Route],
                           fixed_point: Optional[RoutingState] = None
                           ) -> List[CheckOutcome]:
    """Bundle every Theorem-4 precondition check (the Figure 1 arrow (c)).

    ``states``/``routes`` are the sample universes; ``fixed_point`` may
    be omitted, in which case it is computed by iterating σ from the
    first state.
    """
    from ..session import RoutingSession

    checks = check_ultrametric_axioms(metric, routes)
    checks.append(check_bounded(metric, routes))
    checks.append(check_strictly_contracting_on_orbits(metric, network, states))
    if fixed_point is None:
        with RoutingSession(network, "incremental") as session:
            report = session.sigma(states[0] if states else None)
        fixed_point = report.state if report.converged else None
    if fixed_point is not None:
        checks.append(check_contracting_on_fixed_point(
            metric, network, fixed_point, states, strict=False))
    return checks
