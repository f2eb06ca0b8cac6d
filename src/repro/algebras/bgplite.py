"""BGPLite — the safe-by-design path-vector algebra of Section 7.

A faithful Python transliteration of the paper's Agda development:

* a route is either ``INVALID`` or ``valid (lp, communities, path)``
  with ``lp`` a local-preference *level* (lower = better, so that
  policies can only make routes worse by raising it), a finite set of
  community tags, and a simple path;
* the choice operator follows the paper's decision procedure:

  1. an invalid route loses to anything valid;
  2. else the strictly lower ``lp`` level wins;
  3. else the shorter path wins;
  4. else ties break by lexicographic path comparison
     (we additionally break *exact* residual ties — same lp, same path,
     different communities — by a canonical community comparison, so
     that ⊕ is a total order; the paper's model leaves this case
     implicit);

* policies are an AST: ``reject``, ``incrPrefBy n``, ``addComm c``,
  ``delComm c``, ``compose p q`` and ``condition c p`` over a predicate
  language ``and/or/not/inPath/inComm/lprefEq``;
* the edge function ``f_(i,j,pol)`` first performs the P3 guards
  (``(i,j) ⇿ path`` and ``i ∉ path``), then prepends the edge and
  applies the policy.

Because ``incrPrefBy`` can only *raise* the level and every edge
traversal strictly lengthens the path, **every expressible policy is
increasing** — there is no way to write a policy that violates the
Theorem 11 preconditions.  That is the paper's "safe-by-design" claim,
and :func:`random_policy` + the verification suite check it by
generating thousands of adversarial policies.

The deliberately *unsafe* extension :class:`SetPref` (which models real
BGP's ability to overwrite local-preference on import) is provided as a
negative control: a single ``setPref 0`` policy breaks the increasing
law and, on the right gadget, resurrects wedgies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Optional, Tuple

from ..core.algebra import EdgeFunction, PathAlgebra, Route
from ..core.paths import BOTTOM, can_extend, extend


# ----------------------------------------------------------------------
# Routes
# ----------------------------------------------------------------------


class _InvalidRoute:
    """The invalid BGPLite route (singleton)."""

    _instance: Optional["_InvalidRoute"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "invalid"

    def __reduce__(self):
        return (_InvalidRoute, ())


INVALID = _InvalidRoute()


@dataclass(frozen=True)
class BGPRoute:
    """``valid lp communities path`` — an ordinary BGPLite route."""

    lp: int
    communities: FrozenSet[int]
    path: Tuple[int, ...]

    def __repr__(self) -> str:
        comms = "{" + ",".join(map(str, sorted(self.communities))) + "}"
        return f"valid(lp={self.lp}, comms={comms}, path={self.path})"


def valid(lp: int = 0, communities=(), path: Tuple[int, ...] = ()) -> BGPRoute:
    """Convenience constructor mirroring the Agda ``valid`` constructor."""
    return BGPRoute(lp, frozenset(communities), tuple(path))


def _rewrite(route, lp: int, communities):
    """``route`` with a new level and community set, of the same type.

    A plain :class:`BGPRoute` is built directly (the hot path of every
    policy); any other representation, such as prepending's
    ``PaddedRoute``, goes through :func:`dataclasses.replace`.
    """
    if type(route) is BGPRoute:
        return BGPRoute(lp, communities, route.path)
    return replace(route, lp=lp, communities=communities)


# ----------------------------------------------------------------------
# Condition language
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Condition:
    """Base class for the predicate AST."""

    def evaluate(self, route: BGPRoute) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition

    def evaluate(self, route: BGPRoute) -> bool:
        return self.left.evaluate(route) and self.right.evaluate(route)


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition

    def evaluate(self, route: BGPRoute) -> bool:
        return self.left.evaluate(route) or self.right.evaluate(route)


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition

    def evaluate(self, route: BGPRoute) -> bool:
        return not self.inner.evaluate(route)


@dataclass(frozen=True)
class InPath(Condition):
    """"Does the route's path visit ``node``?" — path-aware policy."""

    node: int

    def evaluate(self, route: BGPRoute) -> bool:
        return self.node in route.path


@dataclass(frozen=True)
class InComm(Condition):
    """"Is community ``community`` attached?" — e.g. the paper's "17"."""

    community: int

    def evaluate(self, route: BGPRoute) -> bool:
        return self.community in route.communities


@dataclass(frozen=True)
class LprefEq(Condition):
    value: int

    def evaluate(self, route: BGPRoute) -> bool:
        return route.lp == self.value


# ----------------------------------------------------------------------
# Policy language
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Policy:
    """Base class for the policy AST.

    ``apply`` implements the paper's semantics: the invalid route is a
    fixed point of every policy.
    """

    def apply(self, route):
        if route is INVALID:
            return INVALID
        return self._apply_valid(route)

    def _apply_valid(self, route: BGPRoute):
        raise NotImplementedError


@dataclass(frozen=True)
class Reject(Policy):
    """Route filter: map everything to the invalid route."""

    def _apply_valid(self, route: BGPRoute):
        return INVALID


@dataclass(frozen=True)
class IncrPrefBy(Policy):
    """Raise the local-preference *level* by ``amount`` (≥ 0): never
    makes a route better — the linchpin of safety-by-design."""

    amount: int

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError(
                "IncrPrefBy cannot lower the level; that is what makes the "
                "language increasing (use the UnsafeSetPref control to break it)")

    def _apply_valid(self, route: BGPRoute):
        return _rewrite(route, route.lp + self.amount, route.communities)


@dataclass(frozen=True)
class AddComm(Policy):
    community: int

    def _apply_valid(self, route: BGPRoute):
        return _rewrite(route, route.lp, route.communities | {self.community})


@dataclass(frozen=True)
class DelComm(Policy):
    community: int

    def _apply_valid(self, route: BGPRoute):
        return _rewrite(route, route.lp, route.communities - {self.community})


@dataclass(frozen=True)
class Compose(Policy):
    """``compose p q`` applies ``p`` first, then ``q`` (Agda order)."""

    first: Policy
    second: Policy

    def _apply_valid(self, route: BGPRoute):
        return self.second.apply(self.first.apply(route))


@dataclass(frozen=True)
class If(Policy):
    """``condition c p``: apply ``p`` when ``c`` holds, else no-op."""

    condition: Condition
    policy: Policy

    def _apply_valid(self, route: BGPRoute):
        if self.condition.evaluate(route):
            return self.policy.apply(route)
        return route


@dataclass(frozen=True)
class SetPref(Policy):
    """UNSAFE: overwrite the level, as real (external) BGP allows.

    Not part of the safe language — constructing an edge with it models
    today's BGP and is used by negative-control tests to demonstrate the
    increasing law breaking (Section 8.2's "hidden information" issue).
    """

    value: int

    def _apply_valid(self, route: BGPRoute):
        return _rewrite(route, self.value, route.communities)


# ----------------------------------------------------------------------
# The algebra
# ----------------------------------------------------------------------


class BGPLiteAlgebra(PathAlgebra):
    """The Section 7 algebra ``(Route, ⊕, F, valid 0 ∅ [], invalid)``."""

    name = "bgp-lite"
    is_finite = False

    def __init__(self, n_nodes: int = 8, community_universe: int = 8,
                 max_sample_lp: int = 8):
        self.n_nodes = n_nodes
        self.community_universe = community_universe
        self.max_sample_lp = max_sample_lp

    @property
    def trivial(self) -> Route:
        return valid(0, (), ())

    @property
    def invalid(self) -> Route:
        return INVALID

    # -- choice: the paper's four-step decision procedure -------------------

    def choice(self, x: Route, y: Route) -> Route:
        """Lower ``lp``, then the shorter path, then the lexicographically
        smaller path; the sorted communities only break a full tie."""
        if x is INVALID:
            return y
        if y is INVALID:
            return x
        if x.lp != y.lp:
            return x if x.lp < y.lp else y
        xp, yp = x.path, y.path
        if xp != yp:
            if len(xp) != len(yp):
                return x if len(xp) < len(yp) else y
            return x if xp < yp else y
        return x if sorted(x.communities) <= sorted(y.communities) else y

    def equal(self, a: Route, b: Route) -> bool:
        return a == b

    # -- path projection -----------------------------------------------------

    def path(self, route: Route):
        if route is INVALID:
            return BOTTOM
        return route.path

    # -- edges ------------------------------------------------------------------

    def edge(self, i: int, j: int, policy: Policy = IncrPrefBy(0)) -> "BGPEdge":
        return BGPEdge(i, j, policy)

    # -- sampling ------------------------------------------------------------------

    def sample_route(self, rng) -> Route:
        if rng.random() < 0.1:
            return INVALID
        lp = rng.randint(0, self.max_sample_lp)
        comms = frozenset(c for c in range(self.community_universe)
                          if rng.random() < 0.2)
        k = rng.randint(0, min(4, self.n_nodes - 1))
        path = tuple(rng.sample(range(self.n_nodes), k + 1)) if k else ()
        return BGPRoute(lp, comms, path)

    def sample_edge_function(self, rng) -> "BGPEdge":
        i, j = rng.sample(range(self.n_nodes), 2)
        return BGPEdge(i, j, random_policy(rng, self.community_universe,
                                           self.n_nodes))


class BGPEdge(EdgeFunction):
    """``f_(i,j,pol)`` — P3 guards, path extension, then policy application."""

    def __init__(self, i: int, j: int, policy: Policy):
        self.i = i
        self.j = j
        self.policy = policy

    def __call__(self, route: Route) -> Route:
        if route is INVALID:
            return INVALID
        if not can_extend(self.i, self.j, route.path):
            return INVALID
        extended = BGPRoute(route.lp, route.communities,
                            extend(self.i, self.j, route.path))
        return self.policy.apply(extended)

    def __repr__(self) -> str:
        return f"BGPEdge(({self.i},{self.j}), {self.policy!r})"


# ----------------------------------------------------------------------
# Random policies: the adversarial policy generator
# ----------------------------------------------------------------------


def random_condition(rng, community_universe: int, n_nodes: int,
                     depth: int = 2) -> Condition:
    """A random predicate of bounded depth over the condition language."""
    if depth <= 0 or rng.random() < 0.4:
        leaf = rng.randrange(3)
        if leaf == 0:
            return InPath(rng.randrange(n_nodes))
        if leaf == 1:
            return InComm(rng.randrange(community_universe))
        return LprefEq(rng.randint(0, 5))
    op = rng.randrange(3)
    if op == 0:
        return And(random_condition(rng, community_universe, n_nodes, depth - 1),
                   random_condition(rng, community_universe, n_nodes, depth - 1))
    if op == 1:
        return Or(random_condition(rng, community_universe, n_nodes, depth - 1),
                  random_condition(rng, community_universe, n_nodes, depth - 1))
    return Not(random_condition(rng, community_universe, n_nodes, depth - 1))


def random_policy(rng, community_universe: int = 8, n_nodes: int = 8,
                  depth: int = 3, allow_reject: bool = True) -> Policy:
    """A random *safe* policy: arbitrary composition of the Section 7 AST.

    Every value this returns is increasing by construction — the
    safety-by-design bench feeds thousands of these to the law checker
    and to live convergence runs.
    """
    if depth <= 0:
        choices = ["incr", "add", "del"] + (["reject"] if allow_reject else [])
        kind = rng.choice(choices)
        if kind == "reject":
            return Reject()
        if kind == "incr":
            return IncrPrefBy(rng.randint(0, 4))
        if kind == "add":
            return AddComm(rng.randrange(community_universe))
        return DelComm(rng.randrange(community_universe))
    roll = rng.random()
    if roll < 0.3:
        return Compose(
            random_policy(rng, community_universe, n_nodes, depth - 1,
                          allow_reject),
            random_policy(rng, community_universe, n_nodes, depth - 1,
                          allow_reject))
    if roll < 0.6:
        return If(random_condition(rng, community_universe, n_nodes),
                  random_policy(rng, community_universe, n_nodes, depth - 1,
                                allow_reject))
    return random_policy(rng, community_universe, n_nodes, 0, allow_reject)
