"""Stratified shortest paths (Griffin 2012), referenced in Section 7.

Routes live in strata: a route is ``(level, distance)`` under
lexicographic preference (lower level wins; within a level, shorter
distance wins).  Edge policies either

* stay in the level and add distance (``AddDistance w`` with w ≥ 1),
* jump to a strictly higher level, resetting the distance
  (``RaiseLevel k`` with k ≥ 1), or
* filter the route (``Filtered``).

All three are strictly increasing, so the algebra is safe; the paper
notes its Section 7 BGPLite algebra is a *superset* of this one — a
claim :mod:`tests.algebras.test_stratified` makes precise by exhibiting
an embedding of stratified edge policies into BGPLite policies
(level ↦ local-pref, distance ↦ path length).
"""

from __future__ import annotations

import math
from typing import Iterator

from ..core.algebra import EdgeFunction, Route
from .base import KeyOrderedAlgebra

INF = math.inf

#: The invalid route: worse than every stratum.
STRAT_INVALID = (INF, INF)


class StratifiedAlgebra(KeyOrderedAlgebra):
    """``((level, distance), lex-min, {AddDistance, RaiseLevel, Filtered})``."""

    name = "stratified-shortest-paths"
    is_finite = False

    def __init__(self, max_sample_level: int = 4, max_sample_distance: int = 50):
        self.max_sample_level = max_sample_level
        self.max_sample_distance = max_sample_distance

    @property
    def trivial(self) -> Route:
        return (0, 0)

    @property
    def invalid(self) -> Route:
        return STRAT_INVALID

    def preference_key(self, route: Route):
        return route  # tuples compare lexicographically

    def sample_route(self, rng) -> Route:
        roll = rng.random()
        if roll < 0.1:
            return STRAT_INVALID
        if roll < 0.2:
            return (0, 0)
        return (rng.randint(0, self.max_sample_level),
                rng.randint(0, self.max_sample_distance))

    def sample_edge_function(self, rng) -> EdgeFunction:
        roll = rng.random()
        if roll < 0.1:
            return Filtered()
        if roll < 0.3:
            return RaiseLevel(rng.randint(1, 2))
        if roll < 0.55:
            return LevelMapEdge.random(rng, self.max_sample_level)
        return AddDistance(rng.randint(1, 10))

    # convenience factories
    def add(self, w: int) -> "AddDistance":
        return AddDistance(w)

    def raise_level(self, k: int = 1) -> "RaiseLevel":
        return RaiseLevel(k)

    def filtered(self) -> "Filtered":
        return Filtered()

    def level_map(self, mapping, add: int = 1) -> "LevelMapEdge":
        return LevelMapEdge(mapping, add)


class CarrierClampEdge(EdgeFunction):
    """Clamp an unbounded stratified policy into a finite carrier.

    Routes that the inner policy pushes past ``max_level`` /
    ``max_distance`` become ∞̄ — the same truncation-to-unreachable RIP
    applies at 16 hops.  The clamp maps a route strictly above the
    carrier to the top element, so it preserves the (strictly)
    increasing laws of the inner policy.
    """

    def __init__(self, inner: EdgeFunction, max_level: int,
                 max_distance: int):
        self.inner = inner
        self.max_level = max_level
        self.max_distance = max_distance

    def __call__(self, route: Route) -> Route:
        out = self.inner(route)
        if out == STRAT_INVALID:
            return STRAT_INVALID
        level, dist = out
        if level > self.max_level or dist > self.max_distance:
            return STRAT_INVALID
        return out

    def __repr__(self) -> str:
        return (f"CarrierClampEdge({self.inner!r}, "
                f"≤({self.max_level},{self.max_distance}))")


class BoundedStratifiedAlgebra(StratifiedAlgebra):
    """The finite restriction of stratified shortest paths.

    Carrier: ``{(l, d) : 0 ≤ l ≤ L, 0 ≤ d ≤ D} ∪ {∞̄}`` with the same
    lexicographic preference.  Every edge policy is wrapped in
    :class:`CarrierClampEdge`, so routes leaving the box become ∞̄ —
    which keeps the algebra strictly increasing *and* finite, hence
    Theorem 7 applies and the vectorized engine can int-encode it
    (FiniteEncoding protocol, ``(L+1)·(D+1)+1`` codes).
    """

    is_finite = True

    def __init__(self, max_level: int = 3, max_distance: int = 12):
        if max_level < 0 or max_distance < 0:
            raise ValueError("carrier bounds must be non-negative")
        super().__init__(max_sample_level=max_level,
                         max_sample_distance=max_distance)
        self.max_level = max_level
        self.max_distance = max_distance
        self.name = f"stratified<{max_level},{max_distance}>"

    def routes(self) -> Iterator[Route]:
        for level in range(self.max_level + 1):
            for dist in range(self.max_distance + 1):
                yield (level, dist)
        yield STRAT_INVALID

    def clamp(self, fn: EdgeFunction) -> CarrierClampEdge:
        return CarrierClampEdge(fn, self.max_level, self.max_distance)

    # every factory yields carrier-closed policies

    def add(self, w: int) -> EdgeFunction:
        return self.clamp(super().add(w))

    def raise_level(self, k: int = 1) -> EdgeFunction:
        return self.clamp(super().raise_level(k))

    def level_map(self, mapping, add: int = 1) -> EdgeFunction:
        return self.clamp(super().level_map(mapping, add))

    def sample_edge_function(self, rng) -> EdgeFunction:
        return self.clamp(super().sample_edge_function(rng))

    def sample_route(self, rng) -> Route:
        # the sampling bounds coincide with the carrier, so the parent
        # sampler already stays inside it
        return super().sample_route(rng)


class AddDistance(EdgeFunction):
    """Stay in the stratum, add ``w ≥ 1`` to the distance."""

    def __init__(self, weight: int):
        if weight < 1:
            raise ValueError("intra-level weights must be >= 1")
        self.weight = weight

    def __call__(self, route: Route) -> Route:
        if route == STRAT_INVALID:
            return STRAT_INVALID
        level, dist = route
        return (level, dist + self.weight)

    def __repr__(self) -> str:
        return f"AddDistance(+{self.weight})"


class RaiseLevel(EdgeFunction):
    """Jump ``k ≥ 1`` strata up and restart the distance at 0.

    Strictly increasing because the level component strictly grows;
    resetting the distance is what makes the algebra interestingly
    *non-distributive* (a better route can land in a worse stratum
    after crossing the edge).
    """

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError("level jumps must be >= 1")
        self.k = k

    def __call__(self, route: Route) -> Route:
        if route == STRAT_INVALID:
            return STRAT_INVALID
        level, _dist = route
        return (level + self.k, 0)

    def __repr__(self) -> str:
        return f"RaiseLevel(+{self.k})"


class Filtered(EdgeFunction):
    """The constant-invalid policy: route filtering."""

    def __call__(self, route: Route) -> Route:
        return STRAT_INVALID

    def __repr__(self) -> str:
        return "Filtered()"


class LevelMapEdge(EdgeFunction):
    """A per-level policy: remap the stratum, per the Griffin 2012 model.

    ``mapping[l]`` gives the new level for a route currently at level
    ``l`` (levels not in the mapping jump by 1).  Staying in the level
    adds ``add ≥ 1`` to the distance; moving up resets the distance.

    The increasing law requires ``mapping[l] ≥ l`` (validated), but the
    map need not be *monotone across levels* — e.g.
    ``{0: 2, 1: 1}`` sends level-0 routes above level-1 routes,
    reversing preferences across the edge.  Such non-monotone policies
    are exactly what makes the stratified algebra **non-distributive**
    (policy-rich) while remaining strictly increasing (safe).
    """

    def __init__(self, mapping, add: int = 1, default_jump: int = 1):
        if add < 1:
            raise ValueError("intra-level distance increments must be >= 1")
        if default_jump < 1:
            raise ValueError("the default level jump must be >= 1")
        for level, target in mapping.items():
            if target < level:
                raise ValueError(
                    f"level map lowers level {level} -> {target}; that would "
                    "break the increasing law")
        self.mapping = dict(mapping)
        self.add = add
        self.default_jump = default_jump

    def __call__(self, route: Route) -> Route:
        if route == STRAT_INVALID:
            return STRAT_INVALID
        level, dist = route
        target = self.mapping.get(level, level + self.default_jump)
        if target == level:
            return (level, dist + self.add)
        return (target, 0)

    @classmethod
    def random(cls, rng, max_level: int) -> "LevelMapEdge":
        mapping = {}
        for level in range(max_level + 1):
            roll = rng.random()
            if roll < 0.4:
                mapping[level] = level                       # stay
            elif roll < 0.8:
                mapping[level] = level + rng.randint(1, 2)   # climb
            else:
                mapping[level] = max_level + 5               # near-filter
        return cls(mapping, add=rng.randint(1, 5))

    def __repr__(self) -> str:
        return f"LevelMapEdge({self.mapping}, +{self.add})"
