"""Event-driven message-passing DBF simulator.

Where :meth:`repro.session.RoutingSession.delta` executes the paper's δ
recursion against an abstract schedule, this simulator executes a
*protocol*: nodes hold tables and neighbour caches, send triggered
updates when their tables change, and periodically refresh their
announcements (the soft-state repair that keeps information flowing
when messages are lost — RIP's periodic advertisements).

The channel model (:class:`~repro.protocols.messages.LinkConfig`)
delivers each announcement after a random delay, drops it with
probability ``loss``, duplicates it with probability ``duplicate`` and
— unless FIFO is forced — reorders freely.  All randomness flows from a
single seed, so runs are reproducible.

Announcement storms (bootstrap and periodic refresh, where a node
re-advertises *every* destination to *every* out-neighbour) are
coalesced into **per-link vector events**: the surviving per-destination
announcements for one ``(sender, receiver)`` link travel as one heap
event — the real-protocol analogue of packing many NLRIs into one BGP
UPDATE — cutting the event count from O(n · E) to O(E) per storm.
Loss is still drawn per announcement (so per-destination loss
statistics are unchanged); delay, FIFO ordering and duplication apply
to the vector, and the receiver ingests the whole vector before
recomputing, so each activation sees all the fresh data at once.
Per-announcement accounting (``sent`` / ``lost`` / ``delivered`` /
``duplicated``) is preserved.

Termination: the run ends when no table entry has changed for
``quiet_period`` time units and no messages are in flight (refresh
timers shut themselves off once the network is quiet, and resume on any
change).  The result records whether the final global state is σ-stable
— the operational check of Definition 4.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.algebra import Route
from ..core.state import Network, RoutingState
from ..core.synchronous import is_stable
from .messages import LinkConfig, RELIABLE
from .node import ProtocolNode
from .trace import Activation, MessageStats, TableChange, Trace


@dataclass
class SimulationResult:
    """Outcome of one simulator run."""

    final_state: RoutingState
    converged: bool                 #: final state is σ-stable
    quiesced: bool                  #: run ended by quiescence (not max_time)
    sim_time: float                 #: simulation clock at the end
    convergence_time: float         #: time of the last table change
    trace: Trace

    @property
    def stats(self) -> MessageStats:
        return self.trace.stats


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    kind: str = field(compare=False)
    payload: tuple = field(compare=False)


class Simulator:
    """One simulation instance over a network.

    ``link_config`` may be a single :class:`LinkConfig` applied to every
    directed link or a dict keyed by ``(sender, receiver)``; missing
    keys fall back to ``default_link``.

    ``stability_engine`` is the engine the final σ-stability check runs
    on — the one :meth:`repro.session.RoutingSession.simulate`
    negotiated and owns (never closed here).  Without one the check runs
    one seed round on a fresh incremental engine.
    """

    def __init__(self, network: Network, seed: int = 0,
                 link_config=None, default_link: LinkConfig = RELIABLE,
                 refresh_interval: float = 10.0, quiet_period: float = 30.0,
                 stability_engine=None):
        self.network = network
        self.stability_engine = stability_engine
        self.rng = random.Random(seed)
        self.default_link = default_link
        self._links: Dict[Tuple[int, int], LinkConfig] = {}
        if isinstance(link_config, LinkConfig):
            self.default_link = link_config
        elif isinstance(link_config, dict):
            self._links = dict(link_config)
        self.refresh_interval = refresh_interval
        self.quiet_period = quiet_period

        self.nodes: List[ProtocolNode] = [
            ProtocolNode(i, network) for i in range(network.n)]
        self._queue: List[_Event] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.step = 0                    #: global activation counter
        self.trace = Trace()
        self._last_change = 0.0
        self._refresh_active = [False] * network.n
        self._fifo_clock: Dict[Tuple[int, int], float] = {}

    # -- plumbing ---------------------------------------------------------

    def link(self, sender: int, receiver: int) -> LinkConfig:
        return self._links.get((sender, receiver), self.default_link)

    def _push(self, time: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self._queue, _Event(time, next(self._seq), kind, payload))

    def _out_neighbours(self, i: int) -> List[int]:
        """Nodes that import from ``i`` (i.e. have an edge (m, i)).

        Reads the adjacency matrix's cached
        :class:`~repro.core.state.NetworkTopology` (via the copying
        accessor, so callers can't corrupt the shared snapshot) —
        O(out-degree) per send instead of a full edge-set scan, and
        automatically fresh after dynamic topology changes (the cache
        is invalidated by ``set_edge`` / ``remove_edge``).
        """
        return self.network.neighbours_out(i)

    # -- sending -------------------------------------------------------------

    def _send_vector(self, sender: int, receiver: int,
                     items: List[Tuple[int, Route, int]]) -> None:
        """Ship ``(dest, route, gen_step)`` announcements over one link
        as a single vector event.

        Loss is drawn per announcement (each destination's announcement
        is still an independent victim, exactly as when they travelled
        separately); the survivors share one delay sample, one FIFO
        slot and one duplication draw — the whole packet is duplicated,
        so ``duplicated`` counts every announcement in the copy.
        """
        cfg = self.link(sender, receiver)
        stats = self.trace.stats
        survivors = []
        for item in items:
            stats.sent += 1
            if self.rng.random() < cfg.loss:
                stats.lost += 1
            else:
                survivors.append(item)
        if not survivors:
            return
        copies = 1
        if self.rng.random() < cfg.duplicate:
            copies = 2
            stats.duplicated += len(survivors)
        payload = tuple(survivors)
        for _ in range(copies):
            delay = cfg.sample_delay(self.rng)
            arrival = self.now + delay
            if cfg.fifo:
                key = (sender, receiver)
                arrival = max(arrival, self._fifo_clock.get(key, 0.0))
                self._fifo_clock[key] = arrival
            self._push(arrival, "deliver", (sender, receiver, payload))

    def _send(self, sender: int, receiver: int, dest: int, route: Route,
              gen_step: int) -> None:
        """Single-announcement convenience wrapper (triggered updates)."""
        self._send_vector(sender, receiver, [(dest, route, gen_step)])

    def _announce(self, node_id: int, dest: int) -> None:
        """Triggered update: tell everyone who imports from us."""
        node = self.nodes[node_id]
        for m in self._out_neighbours(node_id):
            self._send(node_id, m, dest, node.table[dest],
                       node.table_gen[dest])

    def _announce_all(self, node_id: int) -> None:
        """Full-table storm (bootstrap / refresh), one vector per link."""
        node = self.nodes[node_id]
        items = [(dest, node.table[dest], node.table_gen[dest])
                 for dest in range(self.network.n)]
        for m in self._out_neighbours(node_id):
            self._send_vector(node_id, m, items)

    # -- recompute ----------------------------------------------------------------

    def _activate(self, node_id: int, dest: int) -> bool:
        """One activation: recompute an entry; announce if it changed."""
        node = self.nodes[node_id]
        self.step += 1
        changed, new_route, betas = node.recompute(dest)
        self.trace.activations.append(Activation(
            self.now, self.step, node_id, dest,
            tuple(sorted(betas.items())), changed))
        if changed:
            old = node.table[dest]
            node.table[dest] = new_route
            node.table_gen[dest] = self.step
            self.trace.changes.append(TableChange(
                self.now, self.step, node_id, dest, old, new_route))
            self._last_change = self.now
            self._announce(node_id, dest)
            self._ensure_refresh(node_id)
        return changed

    def _ensure_refresh(self, node_id: int) -> None:
        if not self._refresh_active[node_id] and self.refresh_interval > 0:
            self._refresh_active[node_id] = True
            self._push(self.now + self.refresh_interval, "refresh", (node_id,))

    # -- event handlers ----------------------------------------------------------

    def _handle_deliver(self, sender: int, receiver: int,
                        items: Tuple[Tuple[int, Route, int], ...]) -> None:
        """Ingest a vector announcement: cache every destination's
        route first, then recompute each — so a storm's activations all
        see the freshest data (coalescing, not just batching)."""
        node = self.nodes[receiver]
        for dest, route, gen_step in items:
            self.trace.stats.delivered += 1
            node.receive(sender, dest, route, gen_step, self.now)
        for dest, _route, _gen in items:
            self._activate(receiver, dest)

    def _handle_refresh(self, node_id: int) -> None:
        if self.now - self._last_change > self.quiet_period:
            # network is quiet: let the timer lapse (it restarts on change)
            self._refresh_active[node_id] = False
            return
        self._announce_all(node_id)
        self._push(self.now + self.refresh_interval, "refresh", (node_id,))

    # -- stability check ------------------------------------------------------------

    def _is_sigma_stable(self, state: RoutingState) -> bool:
        """σ-stability of the final table (Definition 4)."""
        if self.stability_engine is not None:
            return self.stability_engine.is_stable(state)
        return is_stable(self.network, state)

    # -- running --------------------------------------------------------------------

    def current_state(self) -> RoutingState:
        return RoutingState([node.current_row() for node in self.nodes])

    def load_state(self, state: RoutingState) -> None:
        for i, node in enumerate(self.nodes):
            node.load_state_row(state.row(i))

    def run(self, start: Optional[RoutingState] = None,
            max_time: float = 10_000.0,
            until: Optional[float] = None) -> SimulationResult:
        """Run to quiescence (or ``max_time``; or pause at ``until``).

        With ``until`` the run stops at that simulation time with events
        still queued — used by the dynamic-topology driver to interleave
        changes (Section 3.2).
        """
        if start is not None:
            self.load_state(start)
        if not self._queue:
            self.bootstrap()
        deadline = until if until is not None else max_time
        quiesced = False
        while self._queue:
            event = self._queue[0]
            if event.time > deadline:
                break
            heapq.heappop(self._queue)
            self.now = event.time
            if event.kind == "deliver":
                self._handle_deliver(*event.payload)
            elif event.kind == "refresh":
                self._handle_refresh(*event.payload)
            else:  # pragma: no cover - future event kinds
                raise ValueError(f"unknown event kind {event.kind}")
        if not self._queue:
            quiesced = True
        elif until is None:
            # drained by deadline: drop whatever was still in flight
            quiesced = False
        final = self.current_state()
        return SimulationResult(
            final_state=final,
            converged=self._is_sigma_stable(final),
            quiesced=quiesced,
            sim_time=self.now,
            convergence_time=self.trace.last_change_time,
            trace=self.trace,
        )

    def bootstrap(self) -> None:
        """Initial kick: every node announces its full table and arms
        its refresh timer (with per-node phase jitter)."""
        for i in range(self.network.n):
            self._announce_all(i)
            if self.refresh_interval > 0:
                self._refresh_active[i] = True
                phase = self.rng.uniform(0, self.refresh_interval)
                self._push(self.now + phase, "refresh", (i,))
