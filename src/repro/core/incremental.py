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
lists.  For the same reason only the *extensions* ``A[i][k](X[k][j])``
under a dirty entry change from one round to the next, so
:class:`IncrementalEngine` keeps one **column** of extensions per
installed arc and each σ round

* re-extends only the (arc, destination) pairs under a dirty entry,
* refolds ⊕ from the columns over only the entries those pairs feed,
  sharing every untouched row object with the previous state, and
* returns the next dirty set.  An **empty dirty set is exactly
  σ-stability** (Definition 4), so fixed-point detection is free — no
  per-round O(n²) ``equals`` scan.

The engine also keeps a **certificate**: the state its σ loop last
returned as converged, the adjacency object, and ``adjacency.version``
at that moment — the columns then extend that fixed point.  A σ run
that starts from that very object after some writes is *warm*: by
Eq. 5 only the rows importing over a changed arc can differ from the
old fixed point, so the seed round re-extends only the arcs in the
adjacency's arc log (:meth:`~repro.core.state.AdjacencyMatrix.arcs_since`)
and refolds only their importers' rows.  Any other start (another
object, another adjacency, a log that no longer reaches back) seeds
cold: every arc is extended over the start and every row is folded.
Only a converged run certifies; any other return clears the
certificate and the columns.

Reuse rests on two contracts the engines already kept: states produced
by an engine are frozen (:class:`~repro.core.state.RoutingState`), so
the certified object still holds the routes it was certified with, and
edge functions are pure, so an extension whose input did not change
need not be recomputed (the dirty set skipped unchanged rows on that
basis before the columns existed).

:func:`sigma_with_dirty` (a seed round) and :func:`sigma_propagate` (a
propagation round) are the entry points: each runs one round on the
engine it is given, or on a fresh one.  A
:class:`~repro.session.RoutingSession` owns one engine for its
lifetime, so its replays re-solve warm.

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
from typing import Dict, List, Optional, Set, Tuple

from .state import Network, RoutingState

#: A set of (node, destination) entries that changed in the last round.
DirtySet = Set[Tuple[int, int]]


class IncrementalEngine:
    """The incremental rung's σ engine: a column of extensions per
    installed arc, and the certificate of its last fixed point.

    :meth:`step` is one σ round and covers three cases:

    * **cold seed** — ``dirty is None`` and ``state`` is not certified:
      extend every arc over ``state`` (E·n edge-function calls) and
      fold every row;
    * **warm seed** — ``dirty is None``, ``state`` *is* the certified
      fixed point, the adjacency is the same object and its arc log
      reaches back to the certified version: re-extend only the logged
      arcs (key ``i·n + k``), drop the removed ones, and refold only
      their importers' rows;
    * **propagate** — for each dirty ``(k, j)`` and each importer ``i``
      of ``k``, re-extend column ``(i, k)`` at ``j``, then refold each
      touched ``(i, j)`` from the columns.

    Every fold runs ⊕ over ``in_edges[i]`` in ascending ``k``, exactly
    as a full round does.  A refolded whole row replaces its
    predecessor only if one of its entries changed; a propagated row
    copies its predecessor and replaces only the changed entries.

    Memory: the columns hold one route per (arc, destination), E·n
    references plus the extended routes themselves, the same bound
    :class:`DeltaRowCache` documents for δ.  Retained ``tracemalloc``
    after one cold σ on a live session, without → with the columns:
    171 → 379 KiB on ``elmokashfi-24`` under bgp-lite (E = 74),
    86 → 1,145 KiB on G(100, 0.1) shortest paths (E = 1,016) and
    475 → 2,741 KiB on G(60, 0.1) shortest-pv (E = 348).
    :meth:`close` drops the columns and the certificate.
    """

    __slots__ = ("network", "_cols", "_outs", "_adj", "_version", "_over",
                 "_last", "_fixed")

    def __init__(self, network: Network):
        self.network = network
        self.close()

    def close(self) -> None:
        """Drop the columns and the certificate (idempotent)."""
        self._cols: Dict[int, List] = {}  # arc i·n + k → its column
        self._outs = None       # per k: (i, A[i][k], column), built lazily
        self._adj = None        # the adjacency the columns follow ...
        self._version = -1      # ... at this version
        self._over = None       # the state the columns extend
        self._last = None       # the state the last round returned
        self._fixed = None      # the certified fixed point

    def settle(self, fixed: Optional[RoutingState]) -> None:
        """End a σ run: certify ``fixed``, the converged run's state,
        whose columns the engine holds; ``None`` clears everything."""
        adj = self.network.adjacency
        if (fixed is not None and fixed is self._over and adj is self._adj
                and adj.version == self._version):
            self._fixed = fixed
        else:
            self.close()

    def is_stable(self, state: RoutingState) -> bool:
        """Definition 4 by one seed round (free when ``state`` is the
        certified fixed point and nothing was written since).  A check
        is not a σ run, so it certifies nothing and leaves no columns."""
        _, dirty = sigma_with_dirty(self.network, state, self)
        self.close()
        return not dirty

    def step(self, state: RoutingState,
             dirty: Optional[DirtySet] = None) -> Tuple[RoutingState,
                                                        DirtySet]:
        """One σ round: ``(σ(state), dirty′)``, ``dirty′`` being the
        entries where ``σ(state)`` differs from ``state``.

        ``dirty=None`` seeds (warm or cold, see the class docstring).
        Otherwise ``state`` must be ``σ(previous)`` and ``dirty`` their
        difference; if this engine did not return ``state`` from its
        last round at this topology, it extends every arc over
        ``state`` first.
        """
        if dirty is not None and not dirty:
            return state, set()
        adj = self.network.adjacency
        topo = adj.topology
        rows = state.rows
        same = adj is self._adj
        version, fixed, last = self._version, self._fixed, self._last
        # void until this round completes: a raise leaves no columns in use
        self._fixed = self._last = self._over = None
        if dirty is None:
            arcs = (adj.arcs_since(version)
                    if same and state is fixed else None)
            if arcs is None:
                self._extend(topo, rows)
                touched = dict.fromkeys(range(len(rows)))
            else:
                touched = self._patch(adj, rows, arcs)
        else:
            if not (same and state is last and adj.version == version):
                self._extend(topo, rows)
            touched = self._reextend(topo, rows, dirty)
        self._adj, self._version, self._over = adj, adj.version, state
        nxt, new_dirty = self._fold(topo, rows, touched)
        self._last = nxt
        return nxt, new_dirty

    def _extend(self, topo, rows) -> None:
        """Cold: one column per installed arc over ``rows``."""
        n = len(rows)
        self._cols = {i * n + k: list(map(fn, rows[k]))
                      for i, edges in enumerate(topo.in_edges)
                      for k, fn in edges}
        self._outs = None

    def _patch(self, adj, rows, arcs) -> Dict[int, None]:
        """Warm: re-extend the logged arcs over ``rows`` and drop the
        removed ones; returns their importers as whole rows to refold."""
        n = len(rows)
        cols = self._cols
        touched: Dict[int, None] = {}
        for key in set(arcs):
            i, k = divmod(key, n)
            if adj.has_edge(i, k):
                cols[key] = list(map(adj(i, k), rows[k]))
            else:
                cols.pop(key, None)
            touched[i] = None
        self._outs = None
        return touched

    def _reextend(self, topo, rows, dirty: DirtySet) -> Dict[int, Set[int]]:
        """Propagate: re-extend column ``(i, k)`` at ``j`` for every
        dirty ``(k, j)`` and importer ``i``; returns the touched
        destinations by row."""
        outs = self._outs
        if outs is None:
            n = len(rows)
            cols = self._cols
            outs = self._outs = [[] for _ in range(n)]
            for i, edges in enumerate(topo.in_edges):
                for k, fn in edges:
                    outs[k].append((i, fn, cols[i * n + k]))
        touched: Dict[int, Set[int]] = {}
        for k, j in dirty:
            x = rows[k][j]
            for i, fn, col in outs[k]:
                col[j] = fn(x)
                dests = touched.get(i)
                if dests is None:
                    touched[i] = {j}
                else:
                    dests.add(j)
        return touched

    def _fold(self, topo, rows, touched) -> Tuple[RoutingState, DirtySet]:
        """Refold ⊕ from the columns over the touched entries (``None``
        for a whole row); every other row object is shared."""
        alg = self.network.algebra
        choice, equal = alg.choice, alg.equal
        trivial, invalid = alg.trivial, alg.invalid
        cols = self._cols
        in_edges = topo.in_edges
        n = len(rows)
        new_rows = list(rows)
        dirty: DirtySet = set()
        for i, dests in touched.items():
            base = i * n
            srcs = [cols[base + k] for k, _fn in in_edges[i]]
            old = rows[i]
            row = list(old)
            whole = dests is None
            before = len(dirty)
            for j in (range(n) if whole else dests):
                if i == j:
                    new = trivial      # Lemma 1: the diagonal stays 0̄
                else:
                    new = invalid
                    for col in srcs:
                        new = choice(new, col[j])
                if not equal(new, old[j]):
                    dirty.add((i, j))
                elif not whole:
                    continue
                row[j] = new           # a whole row is rebuilt outright
            if len(dirty) > before:
                new_rows[i] = row
        return RoutingState.adopt(new_rows), dirty


def sigma_with_dirty(network: Network, state: RoutingState,
                     engine: Optional[IncrementalEngine] = None
                     ) -> Tuple[RoutingState, DirtySet]:
    """One seed σ round returning ``(σ(X), dirty)``.

    ``dirty`` is the set of ``(i, j)`` entries where ``σ(X)`` differs
    from ``X`` under the algebra's route equality; rows with no changed
    entry are shared structurally with ``state``.  ``dirty == ∅`` iff
    ``X`` is σ-stable.  The round runs on ``engine`` (``network``'s
    :class:`IncrementalEngine`; warm when it certified ``state``), or
    cold on a fresh engine.  Edge functions must be pure.
    """
    if engine is None:
        engine = IncrementalEngine(network)
    return engine.step(state)


def sigma_propagate(network: Network, state: RoutingState, dirty: DirtySet,
                    engine: Optional[IncrementalEngine] = None
                    ) -> Tuple[RoutingState, DirtySet]:
    """One incremental σ round: recompute only change-reachable entries.

    Requires the iteration invariant (``state = σ(previous)`` with
    ``dirty`` their difference).  Only entries ``(i, j)`` with some
    dirty in-neighbour ``(k, j)``, ``k ∈ in(i)``, can differ from
    ``state``; everything else — and every untouched row *object* — is
    shared with ``state``.  On ``engine`` after its own previous round
    this re-extends only the (arc, destination) pairs under ``dirty``;
    a fresh engine (``engine=None``) first extends every arc over
    ``state``.  Edge functions must be pure.
    """
    if engine is None:
        engine = IncrementalEngine(network)
    return engine.step(state, dirty)


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
