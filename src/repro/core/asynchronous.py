"""The asynchronous operator δ (Section 3.1) and convergence experiments.

Given a schedule ``(α, β)`` and a starting state ``X``, the paper defines

    δ⁰(X)            = X
    δᵗ(X)[i][j]      = ⨁_k A[i][k]( δ^{β(t,i,k)}(X)[k][j] ) ⊕ I[i][j]   if i ∈ α(t)
                     = δ^{t-1}(X)[i][j]                                  otherwise

The recursion is implemented in two forms:

* ``strict=True`` — the *literal* paper recursion
  (:func:`delta_step_literal`): every inactive row is copied, every
  entry of an active row queries β afresh, and the **full** state
  history is retained so β may reach arbitrarily far back.  Kept for
  paper-fidelity tests.
* default — the incremental engine: inactive nodes *share* their row
  objects with the previous state (states are immutable by convention,
  so copying them was pure waste), β is queried once per (t, i, k)
  instead of once per entry, changed-row detection happens during the
  step (no per-step O(n²) ``equals`` scan), each node's activation
  diffs its historic reads against a
  :class:`~repro.core.incremental.DeltaRowCache` of the rows it read
  last time and refolds only the destinations that actually changed,
  and the history lives in a
  :class:`~repro.core.incremental.BoundedHistory` ring buffer sized by
  the schedule's declared maximum read-back
  (:meth:`~repro.core.schedule.Schedule.max_read_back`) — O(window · n²)
  memory instead of O(steps · n²).  Schedules that declare no staleness
  bound keep the full history, as before.  Both forms compute exactly
  the same δᵗ.

:func:`_delta_run_resolved` is :meth:`repro.session.RoutingSession.delta`'s
dispatch onto the negotiated rung.  The codes-based rungs share one δ
loop, :meth:`repro.core.vectorized.VectorizedEngine.delta_grid`, and
one kernel, the compiled-schedule step, in process or
(:mod:`repro.core.remote`) on TCP workers; the loop applies the
convergence criterion below on codes.

Convergence detection
---------------------

Definition 6 quantifies over infinite time, which an experiment cannot.
We use a sound finite criterion for bounded-staleness schedules: if the
state has been constant for a window longer than the schedule's maximum
read-back *and* the current state is σ-stable, every future activation
reads data equal to the current state, so the run has provably reached
its limit.  For schedules without a known staleness bound we fall back
to "stable for `stability_window` consecutive steps and σ-fixed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .incremental import BoundedHistory, DeltaRowCache
from .schedule import Schedule
from .state import Network, RoutingState
from .synchronous import is_stable
from .algebra import RoutingAlgebra


@dataclass
class AsyncResult:
    """Outcome of a δ run."""

    converged: bool
    steps: int                        #: total δ steps simulated
    state: RoutingState               #: state at the final step
    converged_at: Optional[int] = None  #: first step from which state stayed fixed
    history: Optional[List[RoutingState]] = field(default=None, repr=False)
    #: number of states the run actually retained in memory (ring-buffer
    #: size for the default engine, steps + 1 for strict/keep_history)
    history_retained: Optional[int] = None

    @property
    def fixed_point(self) -> RoutingState:
        if not self.converged:
            raise ValueError("δ run did not converge; no fixed point")
        return self.state


def delta_step_literal(network: Network, schedule: Schedule,
                       history, t: int) -> RoutingState:
    """The paper's δᵗ recursion, implemented literally (``strict`` mode).

    Copies every inactive row and queries β once per (t, i, k, j) — the
    reference against which :func:`delta_step` is verified.
    """
    alg = network.algebra
    n = network.n
    prev = history[t - 1]
    active = schedule.alpha(t)
    rows = []
    for i in range(n):
        if i not in active:
            rows.append(list(prev.rows[i]))
            continue
        row = []
        in_neighbours = network.neighbours_in(i)
        for j in range(n):
            if i == j:
                row.append(alg.trivial)
                continue
            candidates = []
            for k in in_neighbours:
                src_time = schedule.beta(t, i, k)
                candidates.append(network.edge(i, k)(history[src_time].get(k, j)))
            row.append(alg.best(candidates))
        rows.append(row)
    return RoutingState(rows)


def _delta_step_tracked(network: Network, schedule: Schedule,
                        history, t: int,
                        cache: Optional[DeltaRowCache] = None
                        ) -> Tuple[RoutingState, bool]:
    """Compute ``(δᵗ(X), changed)`` with structural row sharing.

    Inactive nodes keep their previous row *object*; active rows whose
    recomputation leaves every entry equal are shared too.  ``changed``
    reports whether any entry differs from δᵗ⁻¹ — computed during the
    step, so the δ loop needs no per-step equality scan.
    ``history`` is anything indexable by absolute time (a plain list or
    a :class:`~repro.core.incremental.BoundedHistory`).

    With a :class:`~repro.core.incremental.DeltaRowCache`, an
    activation first diffs the historic rows it is about to read
    against the rows it read last time (object identity skips shared
    rows outright) and refolds **only the destinations whose reads
    changed** — entry ``(i, j)`` depends on the sources' column ``j``
    alone, so untouched destinations provably keep their value.  The
    cache is invalidated wholesale on topology mutation (``sync``).
    """
    alg = network.algebra
    n = network.n
    topo = network.adjacency.topology
    choice, equal = alg.choice, alg.equal
    trivial, invalid = alg.trivial, alg.invalid
    prev = history[t - 1]
    active = schedule.alpha(t)
    beta = schedule.beta
    if cache is not None:
        cache.sync(network.adjacency)
    rows = []
    changed_any = False
    for i in range(n):
        old_row = prev.rows[i]
        if i not in active:
            rows.append(old_row)
            continue
        # β is a deterministic function of (t, i, k): hoist one historic
        # row per in-neighbour instead of re-querying per destination.
        in_edges = topo.in_edges[i]
        src_rows = [history[beta(t, i, k)].rows[k] for (k, _fn) in in_edges]
        new_row = None
        row_changed = False
        cached = cache.get(i) if cache is not None else None
        if cached is not None and cached[1] is old_row and \
                len(cached[0]) == len(src_rows):
            # the previous activation's result still is i's current row,
            # so only destinations whose reads changed can move
            dests = set()
            for new_src, old_src in zip(src_rows, cached[0]):
                if new_src is old_src:
                    continue
                for j in range(n):
                    a, b = new_src[j], old_src[j]
                    if a is not b and not equal(a, b):
                        dests.add(j)
            if dests:
                sources = [(fn, r) for (_k, fn), r in zip(in_edges, src_rows)]
                new_row = list(old_row)
                for j in dests:
                    if i == j:
                        new = trivial
                    else:
                        new = invalid
                        for fn, src_row in sources:
                            new = choice(new, fn(src_row[j]))
                    if not equal(new, old_row[j]):
                        row_changed = True
                    new_row[j] = new
        else:
            # no usable memo: full refold (also the cache-less path)
            sources = [(fn, r) for (_k, fn), r in zip(in_edges, src_rows)]
            new_row = []
            for j in range(n):
                if i == j:
                    new = trivial
                else:
                    new = invalid
                    for fn, src_row in sources:
                        new = choice(new, fn(src_row[j]))
                new_row.append(new)
                if not row_changed and not equal(new, old_row[j]):
                    row_changed = True
        row = new_row if row_changed else old_row
        if row_changed:
            changed_any = True
        if cache is not None:
            cache.store(i, src_rows, row)
        rows.append(row)
    return RoutingState.adopt(rows), changed_any


def delta_step(network: Network, schedule: Schedule,
               history, t: int) -> RoutingState:
    """Compute δᵗ(X) given ``history[0..t-1]`` (history[s] = δˢ(X))."""
    state, _ = _delta_step_tracked(network, schedule, history, t)
    return state


def _delta_run_resolved(network: Network, schedule: Schedule,
                        start: RoutingState, rung: str,
                        max_steps: int = 2_000,
                        stability_window: Optional[int] = None,
                        keep_history: bool = False,
                        engine_obj=None) -> AsyncResult:
    """Run δ on one *already negotiated* ladder rung (no fallback here).

    ``rung`` must come from an
    :class:`~repro.core.capabilities.EngineResolution` — in particular
    the codes-based rungs are only ever chosen for bounded schedules
    without ``keep_history``.  ``engine_obj`` is the rung's prebuilt
    engine (a :class:`~repro.session.RoutingSession`'s managed
    instance; required on every codes rung).  Every codes rung runs the
    one δ loop as a grid of one trial — the remote rung through its
    supervised :func:`~repro.core.remote.delta_run_remote`, on its TCP
    workers.  The ``"naive"`` rung runs the strict literal paper
    recursion.
    """
    if rung == "remote":
        from .remote import delta_run_remote
        return delta_run_remote(
            network, schedule, start, max_steps=max_steps,
            stability_window=stability_window, engine=engine_obj)
    if rung in ("vectorized", "parallel", "batched"):
        return engine_obj.delta_grid([(schedule, start)], max_steps=max_steps,
                                     stability_window=stability_window)[0]
    return _delta_run_serial(network, schedule, start, max_steps=max_steps,
                             stability_window=stability_window,
                             keep_history=keep_history,
                             strict=(rung == "naive"))


def _delta_run_serial(network: Network, schedule: Schedule,
                      start: RoutingState, max_steps: int = 2_000,
                      stability_window: Optional[int] = None,
                      keep_history: bool = False,
                      strict: bool = False) -> AsyncResult:
    """The object-model δ loop: incremental tracked stepper, or the
    literal paper recursion when ``strict``.

    ``stability_window`` defaults to (max read-back of the schedule) + 2:
    once the state has been constant for longer than every β read-back
    *and* is σ-stable, every future activation recomputes the same
    entries, so the limit has provably been reached.  The σ check runs
    once per constant run: a state that failed it keeps failing it
    until the state changes, so it is not checked again before then.

    By default the history is a ring buffer of the last
    ``max read-back + 2`` states (O(window · n²) memory).  The full
    history is retained instead when ``strict=True`` (which also runs
    the literal paper recursion, :func:`delta_step_literal`), when
    ``keep_history=True`` (the caller asked for every state), or when
    the schedule declares no staleness bound
    (``max_read_back() is None`` — β may reach arbitrarily far back, so
    bounding the buffer would be unsound).  Results are identical in
    every mode.
    """
    max_read_back = schedule.max_read_back()
    if stability_window is None:
        stability_window = (max_read_back or 1) + 2

    full = strict or keep_history or max_read_back is None
    history = ([start] if full
               else BoundedHistory(start, window=max_read_back + 2))
    alg = network.algebra
    unchanged = 0
    failed = False          # the current state already failed is_stable
    cache = None if strict else DeltaRowCache()
    for t in range(1, max_steps + 1):
        if strict:
            nxt = delta_step_literal(network, schedule, history, t)
            changed = not nxt.equals(history[t - 1], alg)
        else:
            nxt, changed = _delta_step_tracked(network, schedule, history, t,
                                               cache)
        history.append(nxt)
        unchanged = 0 if changed else unchanged + 1
        failed = failed and not changed
        if unchanged >= stability_window and not failed:
            if is_stable(network, nxt):
                return AsyncResult(True, t, nxt, t - unchanged,
                                   history if keep_history else None,
                                   history_retained=len(history))
            failed = True
    return AsyncResult(False, max_steps, history[max_steps], None,
                       history if keep_history else None,
                       history_retained=len(history))


def random_state(algebra: RoutingAlgebra, n: int, rng,
                 sampler=None) -> RoutingState:
    """Draw an arbitrary routing state, as Theorems 7/11 quantify over.

    ``sampler(rng)`` draws one route (defaults to
    ``algebra.sample_route``).  The diagonal is *not* forced to 0̄: the
    theorems promise recovery from truly arbitrary (even nonsensical)
    states, and one application of σ/δ repairs the diagonal (Lemma 1).
    """
    draw = sampler or (lambda r: algebra.sample_route(r))
    return RoutingState.from_function(lambda i, j: draw(rng), n)
