"""Per-node protocol state for the event-driven DBF engine.

Each node keeps

* its routing table — row ``i`` of the global state ``X``;
* an *adjacency-in* cache: the last route heard from each in-neighbour
  for each destination (real DV/PV implementations keep exactly this);
* bookkeeping for β extraction (the activation step at which each
  cached route was generated by its sender).

A node recomputes one destination's entry by folding its cache through
its import policies — a single entry of σ evaluated against possibly
*stale* neighbour data, which is precisely δ's update rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.algebra import Route
from ..core.state import Network


@dataclass
class CacheEntry:
    """Last route heard from one neighbour for one destination."""

    route: Route
    gen_step: int = 0          #: sender activation step that produced it
    recv_time: float = 0.0     #: simulation time of receipt


class ProtocolNode:
    """The state machine run by every router in the simulator."""

    def __init__(self, node_id: int, network: Network):
        self.id = node_id
        self.network = network
        alg = network.algebra
        n = network.n
        #: current routing table: entry per destination
        self.table: List[Route] = [alg.trivial if d == self.id else alg.invalid
                                   for d in range(n)]
        #: when each table entry last changed (activation step)
        self.table_gen: List[int] = [0] * n
        #: in-neighbours this node imports from
        self.in_neighbours: List[int] = network.neighbours_in(node_id)
        #: received-route cache: cache[k][d]
        self.cache: Dict[int, List[CacheEntry]] = {
            k: [CacheEntry(alg.invalid) for _ in range(n)]
            for k in self.in_neighbours
        }

    def load_state_row(self, row: List[Route]) -> None:
        """Overwrite the table with an arbitrary starting row.

        Used to start runs from the arbitrary states Theorems 7/11
        quantify over (including stale/inconsistent garbage).
        """
        alg = self.network.algebra
        self.table = list(row)
        # Lemma 1 is an invariant of the *computation*, not of arbitrary
        # states; we deliberately do not fix the diagonal here.
        del alg  # noqa: F811 - documentation only

    def refresh_neighbour_lists(self) -> None:
        """Re-read the topology after a dynamic change (Section 3.2)."""
        network = self.network
        alg = network.algebra
        new_in = network.neighbours_in(self.id)
        for k in new_in:
            if k not in self.cache:
                self.cache[k] = [CacheEntry(alg.invalid)
                                 for _ in range(network.n)]
        for k in list(self.cache):
            if k not in new_in:
                del self.cache[k]
        self.in_neighbours = new_in

    def receive(self, sender: int, dest: int, route: Route, gen_step: int,
                now: float) -> None:
        """Store an announcement in the cache (no recompute here)."""
        if sender not in self.cache:
            return  # stale message from a removed link
        entry = self.cache[sender][dest]
        entry.route = route
        entry.gen_step = gen_step
        entry.recv_time = now

    def recompute(self, dest: int) -> Tuple[bool, Route, Dict[int, int]]:
        """Re-evaluate the table entry for ``dest`` from the cache.

        Returns ``(changed, new_route, betas)`` where ``betas`` maps each
        in-neighbour to the generation step of the cache entry used —
        the β witness for this activation.
        """
        alg = self.network.algebra
        betas: Dict[int, int] = {}
        if dest == self.id:
            new = alg.trivial
        else:
            candidates = []
            for k in self.in_neighbours:
                entry = self.cache[k][dest]
                betas[k] = entry.gen_step
                candidates.append(self.network.edge(self.id, k)(entry.route))
            new = alg.best(candidates)
        changed = not alg.equal(new, self.table[dest])
        return changed, new, betas

    def current_row(self) -> List[Route]:
        return list(self.table)
