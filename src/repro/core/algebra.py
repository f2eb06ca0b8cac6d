"""Routing algebras: the algebraic heart of the paper (Section 2.1).

A routing algebra is a tuple ``(S, ⊕, F, 0̄, ∞̄)`` where

* ``S`` is the set of routes,
* ``⊕ : S × S → S`` is the *choice* operator returning the preferred of
  two routes,
* ``F`` is a set of *edge functions* ``f : S → S`` that extend a route
  across an edge (applying policy on the way),
* ``0̄`` is the trivial route (a node's route to itself), and
* ``∞̄`` is the invalid route.

The paper requires ⊕ to be associative, commutative and selective, 0̄ to
be an annihilator for ⊕, ∞̄ to be an identity for ⊕, and ∞̄ to be a fixed
point of every ``f ∈ F`` (Table 1).  Because ⊕ is associative,
commutative and selective, the derived relation

    a ≤ b  ⇔  a ⊕ b = a

is a total order with ``0̄ ≤ a ≤ ∞̄`` for every route ``a``.

This module defines the abstract interface plus the derived-order
helpers.  Nothing here is specific to any concrete algebra; the laws of
Table 1 are *checked*, not assumed, by :mod:`repro.verification`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Iterator, List, Sequence

Route = Any
"""Routes are plain hashable Python values; each algebra picks its own type."""


class UnsupportedAlgebraError(TypeError):
    """An engine or encoding was asked for an algebra it cannot handle.

    Raised e.g. when the vectorized engine is constructed over an
    algebra with an infinite (or non-encodable) carrier.  The public
    engine *selectors* catch the capability check instead and fall back
    to the incremental engine; only direct construction surfaces this.
    """


class EdgeFunction(ABC):
    """An element of ``F``: a function from routes to routes.

    Edge functions are first-class objects (rather than bare callables)
    so that adjacency matrices can display them, verification can sample
    them, and path algebras can attach node metadata to them.
    """

    @abstractmethod
    def __call__(self, route: Route) -> Route:
        """Extend ``route`` across this edge, applying policy."""

    def describe(self) -> str:
        """Human-readable description used in matrix pretty-printers."""
        return repr(self)


class FunctionEdge(EdgeFunction):
    """Wrap an arbitrary callable as an :class:`EdgeFunction`."""

    def __init__(self, fn: Callable[[Route], Route], name: str = "f"):
        self._fn = fn
        self._name = name

    def __call__(self, route: Route) -> Route:
        return self._fn(route)

    def __repr__(self) -> str:
        return f"FunctionEdge({self._name})"


class ConstantEdge(EdgeFunction):
    """The constant function ``f(a) = c``.

    With ``c = ∞̄`` this is the representation of a *missing* edge
    (Section 2.2: "Missing edges can be represented by the constant
    function f(a) = ∞").
    """

    def __init__(self, value: Route):
        self.value = value

    def __call__(self, route: Route) -> Route:
        return self.value

    def __repr__(self) -> str:
        return f"ConstantEdge({self.value!r})"


class ComposedEdge(EdgeFunction):
    """Function composition ``(f ∘ g)(a) = f(g(a))``.

    Composition is how multi-hop policy chains arise; it is also used by
    tests to check that increasing functions compose to increasing
    functions.
    """

    def __init__(self, outer: EdgeFunction, inner: EdgeFunction):
        self.outer = outer
        self.inner = inner

    def __call__(self, route: Route) -> Route:
        return self.outer(self.inner(route))

    def __repr__(self) -> str:
        return f"ComposedEdge({self.outer!r}, {self.inner!r})"


class RoutingAlgebra(ABC):
    """Abstract base class for routing algebras (Definition 1).

    Concrete algebras implement :meth:`choice`, :attr:`trivial`,
    :attr:`invalid` and (for verification and ultrametric construction)
    the sampling / enumeration hooks.

    The framework never assumes any law holds; laws are validated by
    :func:`repro.verification.verify_algebra`.  The convergence theorems
    (:mod:`repro.analysis`) state explicitly which laws they need.
    """

    #: Human-readable algebra name, used in reports and benchmark tables.
    name: str = "routing-algebra"

    #: True when ``S`` is finite and :meth:`routes` enumerates it.
    is_finite: bool = False

    # ------------------------------------------------------------------
    # The algebra proper
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def trivial(self) -> Route:
        """The trivial route 0̄ — a node's route to itself; ⊕-annihilator."""

    @property
    @abstractmethod
    def invalid(self) -> Route:
        """The invalid route ∞̄ — ⊕-identity and fixed point of every f."""

    @abstractmethod
    def choice(self, a: Route, b: Route) -> Route:
        """The ⊕ operator: return the preferred of ``a`` and ``b``."""

    # ------------------------------------------------------------------
    # Derived order (Section 2.1):  a ≤ b  ⇔  a ⊕ b = a
    # ------------------------------------------------------------------

    def equal(self, a: Route, b: Route) -> bool:
        """Route equality.  Default is ``==``; override for quotients.

        An override must stay a quotient of ``==`` — ``a == b`` implies
        ``equal(a, b)`` — which :meth:`RoutingState.equals
        <repro.core.state.RoutingState.equals>` relies on when it
        compares whole rows with ``==`` first.
        """
        return a == b

    def leq(self, a: Route, b: Route) -> bool:
        """``a ≤ b`` iff ``a ⊕ b = a`` (a is at least as preferred)."""
        return self.equal(self.choice(a, b), a)

    def lt(self, a: Route, b: Route) -> bool:
        """``a < b`` iff ``a ≤ b`` and ``a ≠ b``."""
        return self.leq(a, b) and not self.equal(a, b)

    def best(self, routes: Iterable[Route]) -> Route:
        """Fold ⊕ over ``routes``; the fold of the empty set is ∞̄.

        This is the big-⊕ used in the definition of σ.
        """
        acc = self.invalid
        for r in routes:
            acc = self.choice(acc, r)
        return acc

    def is_valid(self, route: Route) -> bool:
        """True when ``route`` is not the invalid route ∞̄."""
        return not self.equal(route, self.invalid)

    # ------------------------------------------------------------------
    # Enumeration & sampling hooks (verification / ultrametric support)
    # ------------------------------------------------------------------

    def routes(self) -> Iterator[Route]:
        """Enumerate ``S`` for finite algebras.

        Required when :attr:`is_finite` is True — the distance-vector
        ultrametric of Section 4.1 needs the full carrier to compute
        route heights.
        """
        raise NotImplementedError(
            f"{self.name}: route enumeration unavailable (infinite carrier?)"
        )

    def sample_route(self, rng) -> Route:
        """Draw a pseudo-random route; used by sampled law verification.

        ``rng`` is a :class:`random.Random`.  Finite algebras get a
        default implementation via :meth:`routes`.
        """
        if self.is_finite:
            universe = list(self.routes())
            return universe[rng.randrange(len(universe))]
        raise NotImplementedError(f"{self.name}: no route sampler defined")

    def sample_edge_function(self, rng) -> EdgeFunction:
        """Draw a pseudo-random element of ``F`` for law verification."""
        raise NotImplementedError(f"{self.name}: no edge-function sampler defined")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def sort_routes(self, routes: Sequence[Route]) -> List[Route]:
        """Sort routes from most preferred to least via repeated ⊕.

        Selection sort using only ⊕; O(k²) but independent of any
        numeric key, so it works for every algebra.  Mostly used by
        reports and the height computation.
        """
        remaining = list(routes)
        ordered: List[Route] = []
        while remaining:
            top = self.best(remaining)
            # remove a single occurrence of the ⊕-minimum
            for idx, r in enumerate(remaining):
                if self.equal(r, top):
                    ordered.append(remaining.pop(idx))
                    break
            else:  # pragma: no cover - defensive: ⊕ not selective
                raise ValueError(
                    f"{self.name}: choice() returned a route not in the input; "
                    "⊕ is not selective"
                )
        return ordered


class PathAlgebra(RoutingAlgebra):
    """A routing algebra equipped with a ``path`` projection (Definition 14).

    ``path(r)`` returns the simple path the route was generated along, or
    the sentinel :data:`repro.core.paths.BOTTOM` (⊥) for the invalid
    route.  The laws P1–P3 relating ``path`` to the algebra are checked
    by :func:`repro.verification.verify_path_algebra`.

    Paths are tuples of node ids ``(v0, v1, ..., vk)`` read source →
    destination; the empty tuple ``()`` is the paper's empty path ``[]``
    (the path of the trivial route).  See :mod:`repro.core.paths`.
    """

    @abstractmethod
    def path(self, route: Route):
        """Project the simple path a route was generated along (or ⊥)."""

    def is_consistent(self, route: Route, network) -> bool:
        """Definition 15: ``r`` is consistent iff ``weight(path(r)) = r``.

        ``network`` supplies the adjacency matrix needed by ``weight``.
        """
        from .paths import weight

        return self.equal(weight(self, network, self.path(route)), route)


def exhaustive_pairs(routes: Sequence[Route]) -> Iterator[tuple]:
    """All ordered pairs of routes — helper for exhaustive law checking."""
    return itertools.product(routes, repeat=2)


def exhaustive_triples(routes: Sequence[Route]) -> Iterator[tuple]:
    """All ordered triples of routes — helper for associativity checks."""
    return itertools.product(routes, repeat=3)
