"""Incremental delta-propagation engine for σ/δ.

The literal operators in :mod:`repro.core.synchronous` /
:mod:`repro.core.asynchronous` recompute every one of the ``n²`` state
entries each round.  That is faithful to the paper but wasteful: by
Eq. 5, ``σ(X)[i][j]`` depends only on ``X[k][j]`` for ``k`` an
in-neighbour of ``i``, so an entry of the *next* state can differ from
the corresponding entry of the *current* one only if some in-neighbour's
route to that destination just changed.  Propagating changes therefore
needs only the **dirty set**

    dirty(X_t) = { (k, j) : X_t[k][j] ≠ X_{t-1}[k][j] }

and the cached :class:`~repro.core.state.NetworkTopology` out-neighbour
lists.  The scheme:

* :func:`sigma_with_dirty` — one full σ round that *also* reports the
  dirty set (used to seed an iteration, and after topology changes);
* :func:`sigma_propagate` — one σ round that recomputes only entries
  reachable from the dirty set, shares every untouched row object with
  the previous state, and returns the next dirty set.  An **empty dirty
  set is exactly σ-stability** (Definition 4), so fixed-point detection
  is free — no per-round O(n²) ``equals`` scan.

Invariant required by :func:`sigma_propagate`: ``state`` is
``σ(previous)`` for some state ``previous`` and ``dirty`` is the set of
entries where they differ.  The σ iteration maintains this by seeding
with :func:`sigma_with_dirty`; after a mid-run ``set_edge`` /
``remove_edge`` the invariant is void and the iteration must re-seed
(the public drivers always start with a full round, so calling them
again after a topology change is safe).

:class:`BoundedHistory` is the memory half of the engine: δ's data-flow
function β can only reach back a bounded number of steps on admissible
bounded-staleness schedules, so a δ run needs a ring buffer of the
last ``max read-back + 2`` states, not the O(steps · n²) full history
the literal recursion keeps (``strict=True`` restores the latter for
paper-fidelity tests).

:class:`DeltaRowCache` is the δ mirror of the dirty-set idea: a node's
activation refolds exactly the per-neighbour historic rows it reads, so
remembering the rows *last* read (as
:class:`~repro.protocols.node.ProtocolNode` keeps the last route heard
per neighbour) lets the next activation refold only the destinations
whose reads actually changed — O(changed entries) instead of O(n) per
activation, with identity checks skipping whole neighbours for free
because the incremental engines share unchanged row objects across
history states.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from .state import Network, RoutingState

#: A set of (node, destination) entries that changed in the last round.
DirtySet = Set[Tuple[int, int]]


def sigma_with_dirty(network: Network,
                     state: RoutingState) -> Tuple[RoutingState, DirtySet]:
    """One full σ round returning ``(σ(X), dirty)``.

    ``dirty`` is the set of ``(i, j)`` entries where ``σ(X)`` differs
    from ``X`` under the algebra's route equality; rows with no changed
    entry are shared structurally with ``state``.  ``dirty == ∅`` iff
    ``X`` is σ-stable.
    """
    alg = network.algebra
    n = network.n
    topo = network.adjacency.topology
    choice, equal = alg.choice, alg.equal
    trivial, invalid = alg.trivial, alg.invalid
    rows = state.rows
    dirty: DirtySet = set()
    new_rows: List[List] = []
    for i in range(n):
        # fold ⊕ over (k, A[i][k](X[k][j])) with hoisted source rows —
        # an explicit loop, not best(genexp), keeps this hot path tight
        sources = [(fn, rows[k]) for (k, fn) in topo.in_edges[i]]
        old_row = rows[i]
        row = []
        row_changed = False
        for j in range(n):
            if i == j:
                new = trivial
            else:
                new = invalid
                for fn, src_row in sources:
                    new = choice(new, fn(src_row[j]))
            row.append(new)
            if not equal(new, old_row[j]):
                dirty.add((i, j))
                row_changed = True
        new_rows.append(row if row_changed else old_row)
    return RoutingState.adopt(new_rows), dirty


def sigma_propagate(network: Network, state: RoutingState,
                    dirty: DirtySet) -> Tuple[RoutingState, DirtySet]:
    """One incremental σ round: recompute only change-reachable entries.

    Requires the iteration invariant (``state = σ(previous)`` with
    ``dirty`` their difference — see the module docstring).  Only
    entries ``(i, j)`` with some dirty in-neighbour ``(k, j)``,
    ``k ∈ in(i)``, can differ from ``state``; everything else — and
    every untouched row *object* — is shared with ``state``.
    """
    if not dirty:
        return state, set()
    alg = network.algebra
    topo = network.adjacency.topology
    choice, equal = alg.choice, alg.equal
    trivial, invalid = alg.trivial, alg.invalid
    out_neighbours = topo.out_neighbours
    rows = state.rows

    # Which entries may change?  (i, j) for every i importing from a
    # node whose route to j just changed, grouped by row.
    touched: Dict[int, Set[int]] = {}
    for (k, j) in dirty:
        for i in out_neighbours[k]:
            dests = touched.get(i)
            if dests is None:
                touched[i] = {j}
            else:
                dests.add(j)

    new_rows = list(rows)            # share all row objects by default
    new_dirty: DirtySet = set()
    for i, dests in touched.items():
        sources = [(fn, rows[k]) for (k, fn) in topo.in_edges[i]]
        old_row = rows[i]
        new_row = None
        for j in dests:
            if i == j:
                new = trivial      # Lemma 1: the diagonal stays 0̄
            else:
                new = invalid
                for fn, src_row in sources:
                    new = choice(new, fn(src_row[j]))
            if not equal(new, old_row[j]):
                if new_row is None:
                    new_row = list(old_row)
                new_row[j] = new
                new_dirty.add((i, j))
        if new_row is not None:
            new_rows[i] = new_row
    return RoutingState.adopt(new_rows), new_dirty


class DeltaRowCache:
    """Per-node memo of a δ activation's reads and its folded result.

    ``store(i, src_rows, row)`` records, for node ``i``'s most recent
    activation, the historic source rows it read (aligned to the
    topology snapshot's in-edge order) and the row object it produced —
    which is by construction the row of ``i`` in every later state
    until ``i``'s next activation, so the cache can prove most of the
    next refold redundant.  ``sync`` must be called with the adjacency
    matrix before each step: a topology mutation changes both the
    in-edge lists and the edge functions, so all memos are dropped when
    ``adjacency.version`` moves.

    Memory trade-off: memos hold references to historic row objects, so
    rows already evicted from the :class:`BoundedHistory` ring can stay
    alive — at most one row per present edge (the last one each
    importer read from each neighbour), i.e. worst-case O(E · n) route
    references on top of the ring's O(window · n²).  Mostly these are
    the *same* objects the ring still holds (the engines share
    unchanged rows structurally), the cache lives only for the duration
    of one δ run, and the refolds it saves dominate — but dense
    networks with very stale schedules pay the pin.
    """

    __slots__ = ("_version", "_entries")

    def __init__(self):
        self._version = None
        self._entries: Dict[int, Tuple[List, List]] = {}

    def sync(self, adjacency) -> None:
        """Drop every memo if the topology has mutated since last step."""
        if self._version != adjacency.version:
            self._entries.clear()
            self._version = adjacency.version

    def get(self, i: int):
        """``(src_rows, result_row)`` from ``i``'s last activation, or
        ``None``."""
        return self._entries.get(i)

    def store(self, i: int, src_rows: List, row: List) -> None:
        self._entries[i] = (src_rows, row)


class BoundedHistory:
    """Ring buffer of δ states indexed by *absolute* time.

    Supports the subset of the list protocol ``delta_step`` uses
    (``history[t]``), but retains only the last ``window`` states.
    Reads older than the window raise :class:`LookupError` — on a
    bounded-staleness schedule sized via
    :meth:`~repro.core.schedule.Schedule.max_read_back` this never
    happens; if it does, the schedule reaches further back than it
    declared and the caller should use
    ``RoutingSession.delta(..., strict=True)``.
    """

    __slots__ = ("window", "_states", "_base")

    def __init__(self, start: RoutingState, window: int):
        if window < 2:
            raise ValueError("window must cover at least δᵗ⁻¹ and δᵗ")
        self.window = window
        self._states = deque([start], maxlen=window)
        self._base = 0              # absolute time of _states[0]

    def append(self, state: RoutingState) -> None:
        if len(self._states) == self.window:
            self._base += 1         # the deque evicts _states[0]
        self._states.append(state)

    def __getitem__(self, t: int) -> RoutingState:
        idx = t - self._base
        if idx < 0:
            raise LookupError(
                f"δ history for time {t} was evicted (window={self.window}, "
                f"oldest retained={self._base}); the schedule reads further "
                f"back than its declared max_read_back — run "
                f"RoutingSession.delta(..., strict=True) to keep the full "
                f"history")
        return self._states[idx]

    def __len__(self) -> int:
        return len(self._states)

    @property
    def end_time(self) -> int:
        """Absolute time of the most recently appended state."""
        return self._base + len(self._states) - 1

    def __repr__(self) -> str:
        return (f"BoundedHistory(window={self.window}, "
                f"retained=[{self._base}..{self.end_time}])")
