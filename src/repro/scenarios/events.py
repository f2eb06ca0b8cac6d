"""The event grammar: typed reconfiguration events → timed mutation streams.

A scenario is a topology plus a sequence of *events* — the
reconfigurations an operator (or the world) applies to a running
network: ``link-flap``, ``node-failure``, ``link-weight-change``,
``policy-change``, ``del-best-route``.  Each event **compiles** against
the live network (and, for state-dependent events, the current fixed
point) into one or more :class:`EventPhase` objects, each a labelled
batch of :class:`Mutation` records.

Mutations are the bridge between the two replay transports:

* **in-process** — :meth:`repro.session.RoutingSession.replay` applies
  ``mutation.fn`` straight to the shared adjacency (the incremental
  engines see the dirty sets);
* **service streaming** — the daemon's ``set_edge`` verb takes
  ``mutation.edge_seed`` and re-derives the same function as
  ``factory(random.Random(edge_seed), i, k)``.

:func:`compile_event` materialises ``fn`` from ``edge_seed`` with that
*exact* formula, so the two transports are bit-identical by
construction — the property the survey's oracle mode checks end to end.

Semantics note: restorative phases (``link-up``, ``node-up``) draw
*fresh* seeded policies rather than resurrecting the original edge
functions — recovery is re-provisioning, and a fresh draw is the only
thing the seed-based wire protocol can express losslessly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.algebra import EdgeFunction
from ..core.state import Network, RoutingState
from ..topologies.generators import EdgeFactory

__all__ = [
    "EVENTS",
    "DelBestRoute",
    "Event",
    "EventPhase",
    "LinkFlap",
    "LinkWeightChange",
    "Mutation",
    "NodeFailure",
    "PolicyChange",
    "compile_event",
    "event_seed",
]


def event_seed(seed: int, index: int) -> int:
    """The per-event compile seed for event ``index`` of a scenario
    seeded ``seed`` — one shared derivation, so the in-process and
    service-streaming transports replay identical mutation streams."""
    return seed + 7919 * index


@dataclass(frozen=True)
class Mutation:
    """One topology mutation, expressible on both replay transports.

    ``op`` is ``"set"`` or ``"remove"``.  For a set, ``edge_seed`` is
    the wire form (what the daemon's ``set_edge`` verb takes) and
    ``fn`` the in-process form; :func:`compile_event` guarantees
    ``fn == factory(random.Random(edge_seed), i, k)``.
    """

    op: str
    i: int
    k: int
    edge_seed: Optional[int] = None
    fn: Optional[EdgeFunction] = field(default=None, compare=False,
                                       repr=False)

    def apply(self, network: Network) -> None:
        """Apply in-process (the session-replay transport)."""
        if self.op == "set":
            if self.fn is None:
                raise ValueError(
                    f"set mutation ({self.i}, {self.k}) was never "
                    "materialised; compile events through compile_event()")
            network.set_edge(self.i, self.k, self.fn)
        elif self.op == "remove":
            network.remove_edge(self.i, self.k)
        else:
            raise ValueError(f"unknown mutation op {self.op!r}")


@dataclass(frozen=True)
class EventPhase:
    """A labelled batch of mutations applied atomically at ``time``;
    the replay harness measures convergence/churn after each phase."""

    label: str
    time: int
    mutations: Tuple[Mutation, ...]


def _materialise(mutations: Sequence[Mutation],
                 factory: EdgeFactory) -> Tuple[Mutation, ...]:
    """Fill every set-mutation's ``fn`` from its ``edge_seed`` using the
    daemon's exact formula (`daemon._SessionEntry.apply`), the bit-identity
    anchor between transports."""
    out = []
    for m in mutations:
        if m.op == "set" and m.fn is None:
            fn = factory(random.Random(int(m.edge_seed)), m.i, m.k)
            m = Mutation(m.op, m.i, m.k, m.edge_seed, fn)
        out.append(m)
    return tuple(out)


def _seed(rng: random.Random) -> int:
    """A fresh wire-expressible edge seed."""
    return rng.randrange(1 << 31)


def _present_pairs(network: Network) -> List[Tuple[int, int]]:
    """Undirected present pairs (both arcs installed), sorted."""
    arcs = set(network.present_edges())
    return sorted((i, k) for (i, k) in arcs if i < k and (k, i) in arcs)


class Event:
    """Base class: one typed reconfiguration event.

    ``compile(network, rng, state)`` returns the phases this event
    denotes *against the current topology* — structural choices (which
    link, which node) are drawn from ``rng``, so a scenario seed fully
    determines the mutation stream.  ``state`` is the current fixed
    point; only state-dependent events (:class:`DelBestRoute`) read it.
    """

    name = "event"

    def compile(self, network: Network, rng: random.Random,
                state: Optional[RoutingState] = None) -> List[EventPhase]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(repr=False)
class LinkFlap(Event):
    """Take one bidirectional link down, then bring it back up with
    freshly drawn policies (two phases)."""

    edge: Optional[Tuple[int, int]] = None

    name = "link-flap"

    def compile(self, network, rng, state=None):
        pairs = _present_pairs(network)
        if not pairs:
            raise ValueError(f"{network.name} has no bidirectional link "
                             "to flap")
        i, k = self.edge if self.edge is not None else \
            pairs[rng.randrange(len(pairs))]
        down = (Mutation("remove", i, k), Mutation("remove", k, i))
        up = (Mutation("set", i, k, _seed(rng)),
              Mutation("set", k, i, _seed(rng)))
        return [EventPhase("link-down", 0, down),
                EventPhase("link-up", 1, up)]


@dataclass(repr=False)
class NodeFailure(Event):
    """Fail one node (every incident arc removed), then recover it with
    freshly drawn policies on the same arcs (two phases)."""

    node: Optional[int] = None

    name = "node-failure"

    def compile(self, network, rng, state=None):
        arcs = list(network.present_edges())
        candidates = sorted({i for (i, k) in arcs} | {k for (i, k) in arcs})
        if not candidates:
            raise ValueError(f"{network.name} has no connected node to fail")
        node = self.node if self.node is not None else \
            candidates[rng.randrange(len(candidates))]
        incident = [(i, k) for (i, k) in arcs if i == node or k == node]
        down = tuple(Mutation("remove", i, k) for (i, k) in incident)
        up = tuple(Mutation("set", i, k, _seed(rng)) for (i, k) in incident)
        return [EventPhase("node-down", 0, down),
                EventPhase("node-up", 1, up)]


@dataclass(repr=False)
class LinkWeightChange(Event):
    """Redraw the weight/policy on ``count`` random present arcs
    (one phase) — the classic IGP reweighting event."""

    count: int = 2

    name = "link-weight-change"

    def compile(self, network, rng, state=None):
        arcs = sorted(network.present_edges())
        if not arcs:
            raise ValueError(f"{network.name} has no arc to reweigh")
        chosen = rng.sample(arcs, min(self.count, len(arcs)))
        muts = tuple(Mutation("set", i, k, _seed(rng))
                     for (i, k) in sorted(chosen))
        return [EventPhase("reweigh", 0, muts)]


@dataclass(repr=False)
class PolicyChange(Event):
    """Redraw every import policy of one node (all arcs ``(node, k)``)
    in one phase — an operator shipping a new routing policy."""

    node: Optional[int] = None

    name = "policy-change"

    def compile(self, network, rng, state=None):
        arcs = sorted(network.present_edges())
        importers = sorted({i for (i, _k) in arcs})
        if not importers:
            raise ValueError(f"{network.name} has no importing node")
        node = self.node if self.node is not None else \
            importers[rng.randrange(len(importers))]
        muts = tuple(Mutation("set", i, k, _seed(rng))
                     for (i, k) in arcs if i == node)
        return [EventPhase("policy-change", 0, muts)]


@dataclass(repr=False)
class DelBestRoute(Event):
    """Withdraw one node's best route to a destination by removing the
    arc it arrived through (one phase) — Chameleon's headline event.

    State-dependent: the contributing in-neighbour ``k`` is the one
    whose edge function maps the neighbour's fixed-point route to the
    node's own, found by direct algebraic application against the
    current fixed point (which replay hands in).
    """

    dest: Optional[int] = None

    name = "del-best-route"

    def compile(self, network, rng, state=None):
        if state is None:
            raise ValueError(
                "del-best-route needs the current fixed point; replay it "
                "through compile_event(..., state=...)")
        alg = network.algebra
        n = network.n
        # one rng-shuffled order drives both searches: preferred
        # destinations first, then within a destination the first node
        # holding a real (valid, learned) route to it loses that route.
        # Destinations whose column is all-invalid (reachability bounds
        # can empty one out) fall through to the next candidate.
        order = list(range(n))
        rng.shuffle(order)
        dests = [self.dest] if self.dest is not None else order
        for dest in dests:
            for i in order:
                if i == dest:
                    continue
                best = state.get(i, dest)
                if alg.equal(best, alg.invalid):
                    continue
                for k in network.neighbours_in(i):
                    candidate = network.edge(i, k)(state.get(k, dest))
                    if alg.equal(candidate, best):
                        return [EventPhase(
                            "del-best-route", 0,
                            (Mutation("remove", i, k),))]
        raise ValueError(
            f"{network.name} has no learned route to withdraw "
            f"(destinations tried: {dests})")


#: The event registry: name → zero-argument default-configured factory.
EVENTS: Dict[str, Callable[[], Event]] = {
    "link-flap": LinkFlap,
    "node-failure": NodeFailure,
    "link-weight-change": LinkWeightChange,
    "policy-change": PolicyChange,
    "del-best-route": DelBestRoute,
}


def compile_event(event: Event, network: Network, factory: EdgeFactory,
                  seed: int, state: Optional[RoutingState] = None
                  ) -> List[EventPhase]:
    """Compile ``event`` against the live ``network`` into materialised
    phases: structural choices drawn from ``random.Random(seed)``, and
    every set-mutation's in-process ``fn`` derived from its
    ``edge_seed`` with the daemon's exact formula."""
    rng = random.Random(seed)
    phases = event.compile(network, rng, state)
    return [EventPhase(ph.label, ph.time,
                       _materialise(ph.mutations, factory))
            for ph in phases]
