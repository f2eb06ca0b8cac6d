"""Gao–Rexford economics as a strictly increasing path algebra (Sobrinho's
embedding, discussed in Sections 1 and 1.1 of the paper).

Gao & Rexford showed that BGP converges if every AS follows the
customer/peer/provider rules:

* **preference**: customer-learned routes over peer-learned over
  provider-learned;
* **export**: routes learned from a customer (or originated) may be
  exported to everyone; routes learned from a peer or provider are
  exported *only to customers* ("valley-free" routing).

Sobrinho observed — and the paper repeats — that these conditions embed
into a *strictly increasing* algebra, so our Theorem 11 machinery
subsumes them while also delivering the uniqueness (point 2) that Gao &
Rexford's own theorem lacks.

The embedding: a route is ``(tag, path)`` where ``tag`` records how the
*current holder* learned it (0 = from a customer / originated,
1 = from a peer, 2 = from a provider; lower is preferred), choice is
lexicographic ``(tag, path length, path)``, and the edge function for
``i`` importing from ``j`` with relationship ``rel`` (what ``j`` is to
``i``):

* applies the export filter *from j's point of view* — ``j`` only
  releases the route to ``i`` if ``i`` is ``j``'s customer or the route
  is customer-learned/originated (tag 0);
* applies P3's loop/source guards;
* re-tags the route with how ``i`` learned it (``rel``).

Export rules guarantee the tag never *decreases* along any admissible
extension while the path always lengthens — strictly increasing, hence
absolutely convergent by Theorem 11.  Tests verify the increasing law
by exhaustive sampling, and the GR bench compares convergence on
realistic customer-provider hierarchies.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Tuple

from ..core.algebra import EdgeFunction, PathAlgebra, Route
from ..core.paths import BOTTOM, can_extend, extend


class Rel(IntEnum):
    """Relationship of the *exporting* neighbour to the importer.

    ``CUSTOMER`` means "I import this route from my customer" — the
    most preferred case (customers pay).  The numeric values double as
    preference tags.
    """

    CUSTOMER = 0
    PEER = 1
    PROVIDER = 2


#: The invalid route sentinel.
GR_INVALID = ("invalid",)

GRRoute = Tuple[int, Tuple[int, ...]]
"""A valid route: ``(tag, path)`` with tag ∈ {0, 1, 2}."""


class GaoRexfordAlgebra(PathAlgebra):
    """The customer/peer/provider algebra ``(tag, path)``-lex."""

    name = "gao-rexford"
    is_finite = False

    def __init__(self, n_nodes: int = 8):
        self.n_nodes = n_nodes

    @property
    def trivial(self) -> Route:
        return (0, ())

    @property
    def invalid(self) -> Route:
        return GR_INVALID

    def _key(self, r: GRRoute):
        tag, path = r
        return (tag, len(path), path)

    def choice(self, x: Route, y: Route) -> Route:
        if x == GR_INVALID:
            return y
        if y == GR_INVALID:
            return x
        return x if self._key(x) <= self._key(y) else y

    def path(self, route: Route):
        if route == GR_INVALID:
            return BOTTOM
        return route[1]

    def edge(self, i: int, j: int, rel: Rel) -> "GaoRexfordEdge":
        """The edge ``i ← j`` where ``j`` is ``i``'s ``rel``."""
        return GaoRexfordEdge(i, j, rel)

    def sample_route(self, rng) -> Route:
        if rng.random() < 0.1:
            return GR_INVALID
        tag = rng.randrange(3)
        k = rng.randint(0, min(3, self.n_nodes - 1))
        path = tuple(rng.sample(range(self.n_nodes), k + 1)) if k else ()
        return (tag, path)

    def sample_edge_function(self, rng) -> "GaoRexfordEdge":
        i, j = rng.sample(range(self.n_nodes), 2)
        return GaoRexfordEdge(i, j, Rel(rng.randrange(3)))


class GaoRexfordEdge(EdgeFunction):
    """Import processing for node ``i`` learning from ``j`` (j is i's rel)."""

    def __init__(self, i: int, j: int, rel: Rel):
        self.i = i
        self.j = j
        self.rel = rel

    def __call__(self, route: Route) -> Route:
        if route == GR_INVALID:
            return GR_INVALID
        tag, path = route
        # Export filter, evaluated from j's side: i's role for j is the
        # inverse relationship.  j exports to its own customers freely;
        # to peers and providers it exports only customer/origin routes.
        exporting_to_customer = self.rel is Rel.PROVIDER  # j is i's provider ⇒ i is j's customer
        if not exporting_to_customer and tag != Rel.CUSTOMER:
            return GR_INVALID
        if not can_extend(self.i, self.j, path):
            return GR_INVALID
        return (int(self.rel), extend(self.i, self.j, path))

    def __repr__(self) -> str:
        return f"GaoRexfordEdge(({self.i}<-{self.j}), {self.rel.name})"
