"""``AddPaths``: lift any routing algebra to a path algebra (Section 5).

This is the paper's mechanism for rescuing infinite-carrier algebras
from count-to-infinity: track the simple path each route was generated
along, reject looping extensions, and tie-break route choice by path.
Formally, routes become pairs ``(value, path)`` with

* ``0̄ = (0̄_base, [])``,  ``∞̄ = (∞̄_base, ⊥)``;
* ``⊕`` prefers the better base value, then the *shorter* path, then
  the lexicographically smaller path (the extra tie-breaks make ⊕ a
  total order, hence associative/commutative/selective);
* the edge function on ``(i, j)`` applies P3's guards — reject if the
  edge does not plug into the path's source or if ``i`` already appears
  — then applies the base edge function to the value and prepends
  ``(i, j)`` to the path.

Because every valid extension strictly lengthens the path, an
*increasing* base algebra lifts to a **strictly increasing** path
algebra (the paper's observation below Definition 14), and Theorem 11
gives absolute convergence even when the base carrier is infinite.
"""

from __future__ import annotations

from typing import Tuple

from ..core.algebra import EdgeFunction, PathAlgebra, Route, RoutingAlgebra
from ..core.paths import BOTTOM, can_extend, extend, length


class PathRouteEdge(EdgeFunction):
    """The lifted edge function for edge ``(i, j)`` with base policy ``fn``."""

    def __init__(self, algebra: "AddPaths", i: int, j: int, fn: EdgeFunction):
        self.algebra = algebra
        self.i = i
        self.j = j
        self.fn = fn

    def __call__(self, route: Route) -> Route:
        alg = self.algebra
        if alg.equal(route, alg.invalid):
            return alg.invalid
        value, path = route
        if path is BOTTOM or not can_extend(self.i, self.j, path):
            return alg.invalid
        new_value = self.fn(value)
        if alg.base.equal(new_value, alg.base.invalid):
            return alg.invalid
        return (new_value, extend(self.i, self.j, path))

    def __repr__(self) -> str:
        return f"PathRouteEdge(({self.i},{self.j}), {self.fn!r})"


class AddPaths(PathAlgebra):
    """The path-algebra lift of ``base``.

    ``n_nodes`` bounds the node universe used when *sampling* arbitrary
    (possibly inconsistent) routes for verification; the algebra itself
    works for any node ids.
    """

    def __init__(self, base: RoutingAlgebra, n_nodes: int = 8):
        self.base = base
        self.n_nodes = n_nodes
        self.name = f"add-paths({base.name})"
        # Even when the base is finite the lifted carrier is finite too
        # (finitely many simple paths over finitely many sampled nodes),
        # but enumerating it requires the node universe; we only claim
        # finiteness for ultrametric purposes via the consistent subset.
        self.is_finite = False

    # -- distinguished routes --------------------------------------------

    @property
    def trivial(self) -> Route:
        return (self.base.trivial, ())

    @property
    def invalid(self) -> Route:
        return (self.base.invalid, BOTTOM)

    # -- equality with invalid canonicalisation ----------------------------

    def _is_invalid(self, route: Route) -> bool:
        """Invalid-ness up to quotient: ⊥ path or invalid base value.

        Arbitrary starting states may contain denormalised pairs such as
        ``(5, ⊥)``; the algebra treats every such pair as ∞̄ (this is the
        quotient P1 demands: ``x = ∞̄ ⇔ path(x) = ⊥``).
        """
        value, path = route
        return path is BOTTOM or self.base.equal(value, self.base.invalid)

    def equal(self, x: Route, y: Route) -> bool:
        xi, yi = self._is_invalid(x), self._is_invalid(y)
        if xi or yi:
            return xi and yi
        return self.base.equal(x[0], y[0]) and x[1] == y[1]

    # -- choice -------------------------------------------------------------

    def _path_key(self, path) -> Tuple:
        return (length(path), tuple(path))

    def choice(self, x: Route, y: Route) -> Route:
        if self._is_invalid(x):
            return y
        if self._is_invalid(y):
            return x
        if self.base.lt(x[0], y[0]):
            return x
        if self.base.lt(y[0], x[0]):
            return y
        # equal base preference: shorter path wins, then lexicographic
        return x if self._path_key(x[1]) <= self._path_key(y[1]) else y

    # -- the path projection (Definition 14) ---------------------------------

    def path(self, route: Route):
        if self._is_invalid(route):
            return BOTTOM
        return route[1]

    # -- edges -----------------------------------------------------------------

    def edge(self, i: int, j: int, base_fn: EdgeFunction) -> PathRouteEdge:
        """Lift base policy ``base_fn`` onto the edge ``(i, j)``."""
        return PathRouteEdge(self, i, j, base_fn)

    # -- sampling ----------------------------------------------------------------

    def sample_path(self, rng, allow_bottom: bool = False):
        """A random simple path over the node universe (maybe ⊥)."""
        if allow_bottom and rng.random() < 0.1:
            return BOTTOM
        k = rng.randint(0, min(4, self.n_nodes))
        if k == 0:
            return ()
        nodes = rng.sample(range(self.n_nodes), min(k + 1, self.n_nodes))
        return tuple(nodes)

    def sample_route(self, rng) -> Route:
        """Arbitrary — usually *inconsistent* — routes, as Theorem 11 allows."""
        if rng.random() < 0.1:
            return self.invalid
        value = self.base.sample_route(rng)
        if self.base.equal(value, self.base.invalid):
            return self.invalid
        return (value, self.sample_path(rng))

    def sample_edge_function(self, rng) -> PathRouteEdge:
        i, j = rng.sample(range(self.n_nodes), 2)
        return self.edge(i, j, self.base.sample_edge_function(rng))
