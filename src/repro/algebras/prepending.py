"""AS-path prepending — the Section 7 extension, implemented.

The paper closes Section 7 with: *"AS path prepending would be possible
to add with minor tweaks to the path function and the policy language."*
This module makes those tweaks.

Prepending pads the announced path with copies of the announcing node
to make a route look longer (and hence less attractive) — a ubiquitous
BGP traffic-engineering knob.  The wrinkle is that a padded path is not
a *simple* path, so it cannot be the ``path()`` of a path algebra
directly.  The paper's prescription: keep the padded path in the route,
and let the ``path`` projection *strip the padding* — P1–P3 then hold
for the stripped path, and all of Theorem 11 goes through untouched.

Concretely a route is ``PaddedRoute(lp, communities, raw_path)`` where
``raw_path`` may repeat the head node (only the head — padding older
hops is impossible in BGP and would break the simple-path projection).
Choice compares the *raw* length (so prepending does make a route less
preferred — its entire purpose), then lp, communities etc. as in
BGPLite.  The new policy ``Prepend(k)`` pads the head ``k`` extra
times; it composes freely with the whole Section 7 policy AST.

Increasing is preserved: extension still strictly lengthens the raw
path and no policy can shorten it or lower ``lp``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..core.algebra import EdgeFunction, PathAlgebra, Route
from ..core.paths import BOTTOM, can_extend
from .bgplite import INVALID, Policy


def strip_padding(raw_path: Tuple[int, ...]) -> Tuple[int, ...]:
    """Collapse consecutive duplicate nodes: the ``path`` tweak.

    ``(3, 3, 3, 2, 0) → (3, 2, 0)``.  The projection of a padded path
    is always a simple path when the unpadded path was.
    """
    out = []
    for node in raw_path:
        if not out or out[-1] != node:
            out.append(node)
    return tuple(out)


def padding_of(raw_path: Tuple[int, ...]) -> int:
    """Total number of padded (redundant) entries."""
    return len(raw_path) - len(strip_padding(raw_path))


@dataclass(frozen=True)
class PaddedRoute:
    """A BGPLite route whose path may carry head padding."""

    lp: int
    communities: frozenset
    raw_path: Tuple[int, ...]

    @property
    def path(self) -> Tuple[int, ...]:
        return strip_padding(self.raw_path)

    def __repr__(self) -> str:
        comms = "{" + ",".join(map(str, sorted(self.communities))) + "}"
        return (f"padded(lp={self.lp}, comms={comms}, "
                f"raw={self.raw_path})")


def padded(lp: int = 0, communities=(), raw_path=()) -> PaddedRoute:
    return PaddedRoute(lp, frozenset(communities), tuple(raw_path))


@dataclass(frozen=True)
class Prepend(Policy):
    """Pad the head of the path ``times`` extra times (times ≥ 0).

    Applied after the edge extension, so the head is the importing
    node — matching BGP, where you prepend *your own* AS number.
    """

    times: int

    def __post_init__(self):
        if self.times < 0:
            raise ValueError("cannot prepend a negative number of times")

    def _apply_valid(self, route):
        if not route.raw_path:
            return route          # nothing to pad on the empty path
        head = route.raw_path[0]
        return PaddedRoute(route.lp, route.communities,
                           (head,) * self.times + route.raw_path)


class PrependingBGPAlgebra(PathAlgebra):
    """BGPLite + prepending: routes are :class:`PaddedRoute`.

    The decision procedure inserts the *raw* path length where BGPLite
    used the simple length — prepending therefore deters traffic, which
    is its purpose — and the ``path()`` projection strips padding so the
    path-algebra laws (and Theorem 11) apply verbatim.
    """

    name = "bgp-lite+prepending"
    is_finite = False

    def __init__(self, n_nodes: int = 8, community_universe: int = 8,
                 max_sample_lp: int = 8):
        self.n_nodes = n_nodes
        self.community_universe = community_universe
        self.max_sample_lp = max_sample_lp

    @property
    def trivial(self) -> Route:
        return padded(0, (), ())

    @property
    def invalid(self) -> Route:
        return INVALID

    def _key(self, r: PaddedRoute):
        return (r.lp, len(r.raw_path), r.raw_path,
                tuple(sorted(r.communities)))

    def choice(self, x: Route, y: Route) -> Route:
        if x is INVALID:
            return y
        if y is INVALID:
            return x
        return x if self._key(x) <= self._key(y) else y

    def path(self, route: Route):
        """The paper's tweak: project the *stripped* path."""
        if route is INVALID:
            return BOTTOM
        return route.path

    def edge(self, i: int, j: int, policy: Policy) -> "PrependingEdge":
        return PrependingEdge(i, j, policy)

    def sample_route(self, rng) -> Route:
        if rng.random() < 0.1:
            return INVALID
        lp = rng.randint(0, self.max_sample_lp)
        comms = frozenset(c for c in range(self.community_universe)
                          if rng.random() < 0.2)
        k = rng.randint(0, min(3, self.n_nodes - 1))
        path = tuple(rng.sample(range(self.n_nodes), k + 1)) if k else ()
        if path and rng.random() < 0.4:
            path = (path[0],) * rng.randint(1, 2) + path
        return PaddedRoute(lp, comms, path)

    def sample_edge_function(self, rng) -> "PrependingEdge":
        from .bgplite import Compose, random_policy

        i, j = rng.sample(range(self.n_nodes), 2)
        policy = random_policy(rng, self.community_universe, self.n_nodes)
        if rng.random() < 0.5:
            policy = Compose(policy, Prepend(rng.randint(0, 3)))
        return PrependingEdge(i, j, policy)


class PrependingEdge(EdgeFunction):
    """P3 guards on the *stripped* path, extension on the raw path."""

    def __init__(self, i: int, j: int, policy: Policy):
        self.i = i
        self.j = j
        self.policy = policy

    def __call__(self, route: Route) -> Route:
        if route is INVALID:
            return INVALID
        simple = route.path
        if not can_extend(self.i, self.j, simple):
            return INVALID
        extended = PaddedRoute(route.lp, route.communities,
                               (self.i,) + route.raw_path
                               if route.raw_path else (self.i, self.j))
        result = self.policy.apply(extended)
        return result

    def __repr__(self) -> str:
        return f"PrependingEdge(({self.i},{self.j}), {self.policy!r})"
