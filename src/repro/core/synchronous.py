"""The synchronous Bellman-Ford operator σ and its iteration (Sections 2.2–2.3).

One synchronous round is

    σ(X) = A(X) ⊕ I

element-wise::

    σ(X)[i][j] = ⨁_k A[i][k]( X[k][j] )  ⊕  I[i][j]

i.e. node ``i``'s new route to ``j`` is the best of the policy-extended
routes its neighbours offered, with the trivial route forced on the
diagonal (Lemma 1: σ(X)[i][i] = 0̄ always).

A state is *stable* when ``σ(X) = X`` (Definition 4); the synchronous
computation converges when some iterate reaches a stable state.

Execution engines
-----------------

The iteration runs on one rung of the engine ladder (naive →
incremental → vectorized → parallel → batched → remote), chosen by
:meth:`repro.session.RoutingSession.resolve`; this module holds the
session's σ dispatch (:func:`_iterate_sigma_resolved`) and the two
object-model rungs:

* ``naive`` — the literal definition: every round recomputes all
  ``n²`` entries and a per-round entry compare detects the fixed point
  (and counts the round's churn).  Kept as the executable form of
  Eq. 5 and as the reference the other rungs are verified against.
* ``incremental`` — delta propagation on an
  :class:`~repro.core.incremental.IncrementalEngine`: after a seeding
  round, each round re-extends only the (arc, destination) pairs under
  the entries that changed in the previous round (the *dirty set*),
  refolds only the entries they feed, shares untouched row objects
  structurally, and declares the fixed point the moment the dirty set
  is empty.  The dirty set is exactly the round's changed entries, so
  its size is the round's churn.  The engine certifies the fixed point
  it converged to, so a run started from that very state after a
  topology write seeds warm, from the adjacency's arc log.

Every codes-based rung runs one σ loop,
:func:`repro.core.vectorized.iterate_sigma_vectorized`: the vectorized
and batched rungs on the serial round, the parallel and remote rungs
on their own one-round ``_advance`` (a shared-memory worker pool, TCP
shards).  Every rung computes exactly σ each round, so trajectories,
fixed points and churn counts are identical —
``tests/core/test_engine_equivalence.py`` is the differential oracle
holding them to it.

Both object rungs read neighbour structure from the cached
:class:`~repro.core.state.NetworkTopology`, which is invalidated by
``set_edge`` / ``remove_edge``, and the incremental engine checks
``adjacency.version`` before it reuses anything, so iterating again
after a topology change is always safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .incremental import (
    IncrementalEngine,
    sigma_propagate,
    sigma_with_dirty,
)
from .state import Network, RoutingState


def sigma(network: Network, state: RoutingState) -> RoutingState:
    """Apply one synchronous round: ``σ(X) = A(X) ⊕ I``."""
    alg = network.algebra
    n = network.n
    topo = network.adjacency.topology
    best, trivial = alg.best, alg.trivial
    rows = state.rows
    new_rows = []
    for i in range(n):
        in_edges = topo.in_edges[i]
        # Lemma 1: the diagonal is always the trivial route, since 0̄
        # annihilates ⊕.
        row = [trivial if i == j else
               best(fn(rows[k][j]) for (k, fn) in in_edges)
               for j in range(n)]
        new_rows.append(row)
    return RoutingState.adopt(new_rows)


def sigma_entry(network: Network, state: RoutingState, i: int, j: int):
    """A single entry of σ(X) — Eq. 5 of the paper.

    Exposed separately because δ (the asynchronous operator) recomputes
    individual entries against *per-neighbour historical* states.
    """
    alg = network.algebra
    if i == j:
        return alg.trivial
    in_edges = network.adjacency.topology.in_edges[i]
    return alg.best(fn(state.rows[k][j]) for (k, fn) in in_edges)


def is_stable(network: Network, state: RoutingState) -> bool:
    """Definition 4: ``X`` is stable iff ``σ(X) = X``."""
    _, dirty = sigma_with_dirty(network, state)
    return not dirty


@dataclass
class SyncResult:
    """Outcome of a synchronous fixed-point iteration."""

    converged: bool
    rounds: int                       #: number of σ applications performed
    state: RoutingState               #: final state reached
    trajectory: Optional[List[RoutingState]] = field(default=None, repr=False)
    churn: int = 0                    #: entry changes summed over every round

    @property
    def fixed_point(self) -> RoutingState:
        if not self.converged:
            raise ValueError("iteration did not converge; no fixed point")
        return self.state


def _iterate_sigma_resolved(network: Network, start: RoutingState,
                            rung: str, max_rounds: int = 10_000,
                            keep_trajectory: bool = False,
                            detect_cycles: bool = False,
                            engine_obj=None) -> SyncResult:
    """Run the σ iteration on one *already negotiated* ladder rung.

    ``rung`` must be the ``chosen`` field of an
    :class:`~repro.core.capabilities.EngineResolution` — no further
    fallback happens here.  ``engine_obj`` is the rung's engine (the
    :class:`~repro.session.RoutingSession` passes its managed
    instances; ``None`` on ``naive``).  The codes rungs run
    :func:`~repro.core.vectorized.iterate_sigma_vectorized` on it
    (without one, a fresh serial
    :class:`~repro.core.vectorized.VectorizedEngine` runs).  The
    incremental rung runs its rounds through :func:`sigma_with_dirty`
    and :func:`sigma_propagate` on its
    :class:`~repro.core.incremental.IncrementalEngine` (without one, a
    fresh engine), then certifies a converged run's state on it or
    clears it.  The result's ``churn`` counts entry changes on every
    rung.
    """
    if rung not in ("naive", "incremental"):
        # local import: vectorized imports SyncResult from this module
        from .vectorized import iterate_sigma_vectorized
        return iterate_sigma_vectorized(
            network, start, max_rounds=max_rounds,
            keep_trajectory=keep_trajectory, detect_cycles=detect_cycles,
            engine=engine_obj)
    engine = None
    if rung == "incremental":
        engine = engine_obj or IncrementalEngine(network)
    alg = network.algebra
    current = start
    trajectory = [start] if keep_trajectory else None
    seen = {current: 0} if detect_cycles else None
    dirty = None
    churn = 0
    for k in range(max_rounds):
        if engine is not None:
            if dirty is None:
                nxt, dirty = sigma_with_dirty(network, current, engine)
            else:
                nxt, dirty = sigma_propagate(network, current, dirty, engine)
            changed = len(dirty)
        else:
            nxt = sigma(network, current)
            changed = sum(not alg.equal(a, b)
                          for old, new in zip(current.rows, nxt.rows)
                          for a, b in zip(old, new))
        if keep_trajectory:
            trajectory.append(nxt)
        if not changed:
            result = SyncResult(True, k, current, trajectory, churn)
            break
        churn += changed
        if detect_cycles:
            if nxt in seen:
                result = SyncResult(False, k + 1, nxt, trajectory, churn)
                break
            seen[nxt] = k + 1
        current = nxt
    else:
        result = SyncResult(False, max_rounds, current, trajectory, churn)
    if engine is not None:
        engine.settle(result.state if result.converged else None)
    return result


def synchronous_fixed_point(network: Network,
                            max_rounds: int = 10_000) -> RoutingState:
    """Fixed point of σ starting from the identity matrix ``I``.

    The canonical "clean start" computation; raises if no fixed point is
    found within ``max_rounds`` (which for a strictly increasing algebra
    indicates a bug, by Theorem 7 / 11).
    """
    result = _iterate_sigma_resolved(
        network, RoutingState.identity(network.algebra, network.n),
        "incremental", max_rounds=max_rounds)
    if not result.converged:
        raise RuntimeError(
            f"σ failed to reach a fixed point within {max_rounds} rounds on "
            f"{network!r}")
    return result.state
