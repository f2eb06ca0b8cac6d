"""Üresin–Dubois schedules: the model of asynchronicity (Section 3.1).

A schedule is a pair of functions over discrete time ``𝕋 = {1, 2, ...}``:

* ``α(t) ⊆ V`` — the *activation* function: the set of nodes that
  recompute their routing table at time ``t``;
* ``β(t, i, j) < t`` — the *data-flow* function: the time at which the
  information node ``i`` uses from node ``j`` at time ``t`` was sent.

subject to three axioms:

* **S1** every node activates infinitely often,
* **S2** information only travels forward in time (``β(t,i,j) < t``),
* **S3** stale information is eventually replaced (for every ``t``
  there is a ``t'`` after which ``β`` never returns ``t`` again).

Nothing forbids β from modelling *delayed, lost, reordered or
duplicated* messages: a value sent at time ``s`` that is never the β of
any later read was lost; reads out of order are reordering; the same
``s`` read at two different times is duplication.

Schedules here are deterministic objects (random ones derive all their
choices from a seed via counter-based hashing) so that δ runs are
reproducible and β can be re-queried at will.

:class:`CompiledSchedule` is the bridge between this object model and
the array engines (the δ planner of :mod:`repro.core.vectorized`, which
the in-process step loop and the :mod:`repro.core.remote` coordinator
share): it hands over a *window* of steps at once — the activation
bitmask rows of ``count`` consecutive steps (:meth:`Schedule.alpha_masks`)
and the β read times over given in-edges of many steps in one call
(:meth:`Schedule.beta_times_for` with one step time per node) — keeps
an equivalence contract to the object form (``alpha``/``beta`` answer
identically) and *derives* ``max_read_back`` for schedules that
declare none.

Those array forms are closed forms of ``alpha`` and ``beta`` where a
class has one.  A subclass that overrides ``alpha`` or ``beta`` but not
their array forms would inherit closed forms of its parent's schedule,
so it gets the base forms instead, which ask its own ``alpha`` and
``beta`` (:meth:`Schedule.__init_subclass__`): the array engines run
the schedule the object engines run.
"""

from __future__ import annotations

import hashlib
import weakref
from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set

import numpy as _np


def _hash_int(*parts) -> int:
    """Deterministic 64-bit hash of a tuple of ints/strings.

    Used as a counter-based PRNG: every (seed, t, i, j, tag) combination
    yields an independent, reproducible pseudo-random value.  This makes
    β a genuine *function* — querying it twice gives the same answer —
    which the δ recursion relies on.
    """
    data = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


#: splitmix64 constants (Steele/Lea/Flood): the lane expander below is
#: the standard finalizer over a blake2b-derived row base.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


#: cached splitmix lane offsets ``arange(1, n+1) * γ`` per row width,
#: and pre-built uint64 scalar constants (numpy scalar construction is
#: surprisingly expensive in a per-step hot path).
_SM_LANES: Dict[int, "object"] = {}
_U30, _U27, _U31 = _np.uint64(30), _np.uint64(27), _np.uint64(31)
_UM1, _UM2 = _np.uint64(_SM_MUL1), _np.uint64(_SM_MUL2)
_UG = _np.uint64(_SM_GAMMA)


def _splitmix_rows(bases, count: int):
    """``count`` independent 64-bit draws from each row base in
    ``bases`` (a uint64 array): a ``bases.shape + (count,)`` array.

    The row-based form of counter hashing: one blake2b digest keys each
    row (collision-resistant across (seed, tag, t, i) counters), and a
    splitmix64 finalizer expands it into per-lane draws — lane ``j`` is
    ``splitmix(base + (j + 1)·γ)`` — numpy-vectorizable, so a whole row
    of schedule decisions costs one hash plus a handful of uint64 array
    ops instead of ``count`` digests.
    """
    return _splitmix(bases[..., None] + _lanes(count))


def _lanes(count: int):
    """The lane offsets ``(j + 1)·γ`` of lanes ``j < count`` (cached)."""
    lanes = _SM_LANES.get(count)
    if lanes is None:
        lanes = _np.arange(1, count + 1, dtype=_np.uint64) * _UG
        _SM_LANES[count] = lanes
    return lanes


def _bases(digests):
    """8-byte blake2b ``digests`` as one uint64 array of row bases —
    :func:`_hash_int` of each hashed key, byte for byte."""
    return _np.frombuffer(b"".join(digests), dtype=">u8").astype(_np.uint64)


def _splitmix(z):
    """The splitmix64 finalizer over a uint64 array of lane states."""
    z = (z ^ (z >> _U30)) * _UM1
    z = (z ^ (z >> _U27)) * _UM2
    return z ^ (z >> _U31)


class _PerStepMemo:
    """Sliding memo of per-step schedule draws, keyed by absolute time.

    Counter-based-hash schedules (:class:`RandomSchedule`) recompute an
    independent blake2b digest for every ``(t, i, j)`` query, but the δ
    recursion queries the *same* step many times over — the literal
    paper recursion asks β once per ``(t, i, k, j)`` (an ``n``-fold
    redundancy per read) and every engine re-asks ``alpha(t)`` at least
    once.  The memo keeps the draws of the last ``keep`` distinct steps
    (the recursion only ever looks at the current step, but interleaved
    validation/compilation may revisit a small neighbourhood) and
    evicts FIFO beyond that, so memory stays O(keep · n) however long
    the run is.
    """

    __slots__ = ("keep", "_rows", "_order")

    def __init__(self, keep: int = 8):
        self.keep = keep
        self._rows: Dict[int, dict] = {}
        self._order: deque = deque()

    def row(self, t: int) -> dict:
        row = self._rows.get(t)
        if row is None:
            row = {}
            self._rows[t] = row
            self._order.append(t)
            if len(self._order) > self.keep:
                self._rows.pop(self._order.popleft(), None)
        return row


#: the array forms of each of a schedule's two functions
_ARRAY_FORMS = {"alpha": ("alpha_masks",),
                "beta": ("beta_row", "beta_uniform", "beta_times_for")}


class Schedule(ABC):
    """Abstract (α, β) schedule over ``n`` nodes."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("schedule needs n >= 1 nodes")
        self.n = n

    def __init_subclass__(cls, **kwargs):
        """A class that overrides ``alpha`` (``beta``) keeps only the
        array forms of it that it defines itself: any other is reset to
        the base form, which asks the class's own function.  An
        inherited closed form answers for the parent's schedule, which
        would make the array engines run another schedule than the
        object engines."""
        super().__init_subclass__(**kwargs)
        for name, forms in _ARRAY_FORMS.items():
            if name in cls.__dict__:
                for form in forms:
                    if form not in cls.__dict__:
                        setattr(cls, form, getattr(Schedule, form))

    @abstractmethod
    def alpha(self, t: int) -> FrozenSet[int]:
        """The set of nodes that activate at time ``t`` (t >= 1)."""

    @abstractmethod
    def beta(self, t: int, i: int, j: int) -> int:
        """The send time of the data node ``i`` reads from ``j`` at ``t``.

        Must satisfy ``0 <= beta(t, i, j) < t`` (S2; time 0 is the
        initial state).
        """

    def beta_row(self, t: int, i: int) -> List[int]:
        """All of node ``i``'s read times at ``t``: ``[β(t,i,j) for j]``.

        The row form: what the base bulk hook (:meth:`beta_times_for`)
        gathers from.  Uniform-β schedules (:meth:`beta_uniform`)
        answer with one constant fill — a single point of truth, so the
        fast paths that consult ``beta_uniform`` directly can never
        drift from the row form; everything else queries :meth:`beta`
        per source.
        """
        uniform = self.beta_uniform(t)
        if uniform is not None:
            return [uniform] * self.n
        beta = self.beta
        return [beta(t, i, j) for j in range(self.n)]

    def alpha_masks(self, t: int, count: int):
        """The activation rows of steps ``t … t + count − 1``: a
        ``(count, n)`` bool array whose row ``k`` marks ``α(t + k)``.

        The window form of :meth:`alpha`, which the array engines' δ
        planner reads.  The base stacks :meth:`alpha`; a schedule with a
        closed form overrides it.
        """
        masks = _np.zeros((count, self.n), dtype=bool)
        for k in range(count):
            act = self.alpha(t + k)
            if act:
                masks[k, list(act)] = True
        return masks

    def beta_times_for(self, t, nodes, sources, counts):
        """Read times over given in-edges, as one int64 array: the bulk
        hook the array engines call once per window of steps.

        ``nodes`` are active nodes and ``t`` their step: one step for
        all of them, or one step per node (``t[k]`` that of
        ``nodes[k]``, a window of steps in one call).  ``counts[k]`` is
        the number of in-edges of ``nodes[k]``, and ``sources`` the
        exporters of those edges, node by node (so ``counts`` sums to
        ``len(sources)``); entry ``e`` is ``β(t_k, i, sources[e])`` for
        the node ``i`` edge ``e`` belongs to.  A uniform-β step is a
        constant fill (:meth:`beta_uniform`); the nodes of any other
        step gather from their :meth:`beta_row`, so a schedule that
        defines only ``alpha``/``beta`` answers here too.
        """
        nodes = _np.asarray(nodes, dtype=_np.intp)
        counts = _np.asarray(counts, dtype=_np.intp)
        times = _np.broadcast_to(_np.asarray(t, dtype=_np.int64), nodes.shape)
        steps, at = _np.unique(times, return_inverse=True)
        uniform = [self.beta_uniform(s) for s in steps.tolist()]
        ask = _np.asarray([u is None for u in uniform], dtype=bool)[at]
        out = _np.repeat(_np.asarray([u or 0 for u in uniform],
                                     dtype=_np.int64)[at], counts)
        ask &= counts > 0
        if ask.any():
            rows = _np.array([self.beta_row(s, i) for s, i in zip(
                times[ask].tolist(), nodes[ask].tolist())], dtype=_np.int64)
            edges = _np.repeat(ask, counts)
            out[edges] = rows[_np.repeat(_np.arange(rows.shape[0]),
                                         counts[ask]),
                              _np.asarray(sources, dtype=_np.intp)[edges]]
        return out

    def beta_uniform(self, t: int) -> Optional[int]:
        """The common read time at ``t`` when β is independent of
        ``(i, j)``, else ``None``.

        A structural fast path: the synchronous, round-robin,
        fixed-delay and adversarial-stale schedules all read every
        source at one uniform time per step, so a batched δ step can
        fill whole read-time blocks with one constant instead of
        querying β per (node, edge).  ``None`` (the base answer) simply
        means "no shortcut — ask β".
        """
        return None

    def max_read_back(self) -> Optional[int]:
        """Upper bound on ``t - β(t, i, j)``, or ``None`` if unknown.

        Bounded-staleness schedules declare how far back β can reach;
        a δ run sizes its ring-buffer history (and its default
        convergence window) from this.  The base implementation probes
        the conventional ``max_delay`` / ``delay`` attributes so that
        externally defined schedules keep working; subclasses with a
        known bound should override.
        """
        bound = getattr(self, "max_delay", None)
        if bound:
            return bound
        return getattr(self, "delay", None)

    # ------------------------------------------------------------------
    # Axiom validation over a finite window.
    # ------------------------------------------------------------------

    def validate(self, horizon: int) -> List[str]:
        """Check S1–S3 over ``t ∈ [1, horizon]``; return violation messages.

        S1 and S3 are liveness properties, so over a finite window they
        are checked in a bounded form: S1 requires every node to
        activate at least once in every window of length ``horizon``
        (callers pass a horizon much larger than the schedule's
        activation period); S3 requires that data sent at time ``t`` is
        no longer read by the end of the window once ``t`` has fallen
        ``horizon/2`` steps behind.
        """
        problems: List[str] = []
        activated: Set[int] = set()
        last_reads = {}
        for t in range(1, horizon + 1):
            act = self.alpha(t)
            if not act.issubset(range(self.n)):
                problems.append(f"alpha({t}) = {sorted(act)} not a subset of V")
            activated.update(act)
            for i in act:
                for j in range(self.n):
                    b = self.beta(t, i, j)
                    if not (0 <= b < t):
                        problems.append(f"S2 violated: beta({t},{i},{j}) = {b}")
                    last_reads[(i, j)] = max(last_reads.get((i, j), 0), t - b)
        missing = set(range(self.n)) - activated
        if missing:
            problems.append(f"S1 (bounded): nodes {sorted(missing)} never "
                            f"activate within horizon {horizon}")
        stale = {k: v for k, v in last_reads.items() if v > horizon // 2}
        if stale:
            problems.append(f"S3 (bounded): reads older than horizon/2 seen "
                            f"for pairs {sorted(stale)}")
        return problems

    def is_admissible(self, horizon: int = 200) -> bool:
        """True when no S1–S3 violation is found over the window."""
        return not self.validate(horizon)


class SynchronousSchedule(Schedule):
    """The degenerate schedule that recovers σ from δ.

    ``α(t) = V`` and ``β(t, i, j) = t - 1``: every node activates every
    step using everyone's previous-step data (Section 3.1, last
    paragraph).
    """

    def alpha(self, t: int) -> FrozenSet[int]:
        return frozenset(range(self.n))

    def alpha_masks(self, t: int, count: int):
        return _np.ones((count, self.n), dtype=bool)

    def beta(self, t: int, i: int, j: int) -> int:
        return t - 1

    def beta_uniform(self, t: int) -> Optional[int]:
        return t - 1

    def max_read_back(self) -> Optional[int]:
        return 1

    def __repr__(self) -> str:
        return f"SynchronousSchedule(n={self.n})"


def _one_hot(nodes, n: int):
    """``(len(nodes), n)`` bool rows, row ``k`` marking ``nodes[k]``."""
    masks = _np.zeros((nodes.size, n), dtype=bool)
    masks[_np.arange(nodes.size), nodes] = True
    return masks


class RoundRobinSchedule(Schedule):
    """One node activates per step, cyclically, reading latest data.

    The classic "Gauss–Seidel" schedule: node ``(t-1) mod n`` activates
    at ``t`` with β = t - 1.
    """

    def alpha(self, t: int) -> FrozenSet[int]:
        return frozenset({(t - 1) % self.n})

    def alpha_masks(self, t: int, count: int):
        return _one_hot(_np.arange(t - 1, t - 1 + count) % self.n, self.n)

    def beta(self, t: int, i: int, j: int) -> int:
        return t - 1

    def beta_uniform(self, t: int) -> Optional[int]:
        return t - 1

    def max_read_back(self) -> Optional[int]:
        return 1

    def __repr__(self) -> str:
        return f"RoundRobinSchedule(n={self.n})"


class FixedDelaySchedule(Schedule):
    """Every node activates every step but reads data ``delay`` steps old.

    Models a network with uniform propagation delay.
    """

    def __init__(self, n: int, delay: int = 3):
        super().__init__(n)
        if delay < 1:
            raise ValueError("delay must be >= 1")
        self.delay = delay

    def alpha(self, t: int) -> FrozenSet[int]:
        return frozenset(range(self.n))

    def alpha_masks(self, t: int, count: int):
        return _np.ones((count, self.n), dtype=bool)

    def beta(self, t: int, i: int, j: int) -> int:
        return max(0, t - self.delay)

    def beta_uniform(self, t: int) -> Optional[int]:
        return max(0, t - self.delay)

    def __repr__(self) -> str:
        return f"FixedDelaySchedule(n={self.n}, delay={self.delay})"


class RandomSchedule(Schedule):
    """Seeded pseudo-random schedule with delays, reordering and duplication.

    * Each node activates at each step with probability
      ``activation_prob`` — but is *forced* to activate at least once
      every ``max_silence`` steps, guaranteeing S1.
    * ``β(t, i, j)`` is drawn uniformly from the window
      ``[t - max_delay, t - 1]`` (clamped at 0), guaranteeing S2 and,
      because the window is bounded, S3.

    Because β is sampled independently per (t, i, j), consecutive reads
    can go *backwards in send-time* (reordering) and the same send-time
    can be read repeatedly (duplication).  Data generated at times that
    are never sampled was, from the reader's perspective, lost.

    Draws are *row-hashed and memoized*: one blake2b digest keys each
    per-``t`` activation row / per-``(t, i)`` delay row, a splitmix64
    finalizer expands it into independent per-lane draws
    (:func:`_splitmix_rows`, numpy-vectorized), and the rows of the
    last few distinct ``t`` values are cached (:class:`_PerStepMemo`)
    — so a whole row of schedule decisions costs one hash plus array
    ops, and the strict δ recursion's ``n``-fold redundant β queries
    hit the memo.  The array engines build no rows at all: the window
    hooks :meth:`alpha_masks` and :meth:`beta_times_for` draw a window
    of steps at once — exactly the lanes of its in-edges for β — the
    same values.  The schedule stays a deterministic
    pure function of its seed — but note the row-hash rework (seed
    version 2) changed *which* schedule each seed denotes relative to
    the earlier per-(t, i, j) blake2b draws: experiments pinned to old
    seeds sample a different (equally admissible) schedule, and
    `BENCH_core.json` was regenerated accordingly.
    :data:`SCHEDULE_SEED_VERSION` records that semantic break so
    recorded experiments can name which mapping their seeds assume.
    """

    #: version of the seed → schedule mapping.  1 = the original
    #: per-(t, i, j) blake2b draws; 2 = the PR 4 row-hashed draws (one
    #: blake2b per (t, i) row expanded by a splitmix64 finalizer) — the
    #: same seed denotes a *different* (equally admissible) schedule
    #: under the two versions.  Surfaced in
    #: :class:`~repro.session.DeltaReport` /
    #: :class:`~repro.session.GridReport` metadata so recorded
    #: experiments are reproducible across library versions.
    SCHEDULE_SEED_VERSION = 2

    def __init__(self, n: int, seed: int = 0, activation_prob: float = 0.5,
                 max_delay: int = 5, max_silence: int = 10):
        super().__init__(n)
        if not (0.0 < activation_prob <= 1.0):
            raise ValueError("activation_prob must be in (0, 1]")
        if max_delay < 1 or max_silence < 1:
            raise ValueError("max_delay and max_silence must be >= 1")
        self.seed = seed
        self.activation_prob = activation_prob
        self.max_delay = max_delay
        self.max_silence = max_silence
        self._alpha_memo = _PerStepMemo()
        self._beta_memo = _PerStepMemo()
        #: the suffix of row ``(t, i)``'s hash input, per node
        self._node_keys = [str(i).encode() for i in range(n)]

    def alpha(self, t: int) -> FrozenSet[int]:
        memo = self._alpha_memo.row(t)
        cached = memo.get("alpha")
        if cached is None:
            # this class's closed form, which a subclass's alpha drops
            cached = memo["alpha"] = frozenset(_np.flatnonzero(
                RandomSchedule.alpha_masks(self, t, 1)[0]).tolist())
        return cached

    def alpha_masks(self, t: int, count: int):
        """One blake2b per step keys its activation row, and one
        splitmix over ``(count, n)`` lanes draws every row at once."""
        steps = _np.arange(t, t + count)
        threshold = int(self.activation_prob * (2 ** 64))
        if threshold > _MASK64:           # activation_prob == 1.0
            masks = _np.ones((count, self.n), dtype=bool)
        else:
            seed, blake2b = self.seed, hashlib.blake2b
            masks = _splitmix_rows(_bases(
                [blake2b(f"{seed}:act:{s}".encode(), digest_size=8).digest()
                 for s in steps.tolist()]), self.n) < _np.uint64(threshold)
        # a forced activation every max_silence steps keeps S1 true at
        # tiny probabilities
        masks |= (_np.arange(self.n) % self.max_silence)[None, :] == \
            (steps % self.max_silence)[:, None]
        return masks

    def _delay_row(self, t: int, i: int):
        """Node ``i``'s per-source delay draws at ``t`` (cached per t)."""
        memo = self._beta_memo.row(t)
        row = memo.get(i)
        if row is None:
            draws = _splitmix_rows(_np.uint64(
                _hash_int(self.seed, "delay", t, i)), self.n)
            row = 1 + (draws % _np.uint64(self.max_delay)).astype(_np.int64)
            memo[i] = row
        return row

    def beta(self, t: int, i: int, j: int) -> int:
        return max(0, t - int(self._delay_row(t, i)[j]))

    def beta_row(self, t: int, i: int) -> List[int]:
        return _np.maximum(0, t - self._delay_row(t, i)).tolist()

    def beta_times_for(self, t, nodes, sources, counts):
        """The bulk hook as one edge-wise splitmix.

        Lane ``j`` of row ``(t, i)`` is ``splitmix(h(t, i) + (j + 1)·γ)``
        (:func:`_splitmix_rows`), so a whole window is every node's row
        hash repeated over its in-edges plus ``(sources + 1)·γ``, put
        through the finalizer: the draws of :meth:`beta_row` without
        building a row.  The row hashes are :func:`_hash_int`'s
        digests, byte for byte: blake2b streams, so each step's prefix
        ``"{seed}:delay:{t}:"`` is hashed once and copied per node.
        """
        nodes = _np.asarray(nodes)
        times = _np.broadcast_to(_np.asarray(t, dtype=_np.int64), nodes.shape)
        blake2b, keys = hashlib.blake2b, self._node_keys
        rows, last, prefix = [], None, None
        for s, i in zip(times.tolist(), nodes.tolist()):
            if s != last:
                last = s
                prefix = blake2b(f"{self.seed}:delay:{s}:".encode(),
                                 digest_size=8)
            row = prefix.copy()
            row.update(keys[i])
            rows.append(row.digest())
        z = _np.repeat(_bases(rows), counts) + \
            _lanes(self.n).take(_np.asarray(sources, dtype=_np.intp))
        draws = _splitmix(z) % _np.uint64(self.max_delay)
        return _np.maximum(0, _np.repeat(times, counts) - 1
                           - draws.astype(_np.int64))

    def __repr__(self) -> str:
        return (f"RandomSchedule(n={self.n}, seed={self.seed}, "
                f"p={self.activation_prob}, max_delay={self.max_delay})")


class AdversarialStaleSchedule(Schedule):
    """A schedule engineered to keep information as stale as S3 allows.

    Nodes activate in staggered bursts; reads always reach back the full
    ``max_delay`` window.  Stress-tests absolute convergence claims: any
    dependence on freshness beyond S1–S3 shows up here first.
    """

    def __init__(self, n: int, max_delay: int = 8, burst: int = 3):
        super().__init__(n)
        self.max_delay = max_delay
        self.burst = burst

    def alpha(self, t: int) -> FrozenSet[int]:
        phase = (t // self.burst) % self.n
        return frozenset({phase})

    def alpha_masks(self, t: int, count: int):
        return _one_hot((_np.arange(t, t + count) // self.burst) % self.n,
                        self.n)

    def beta(self, t: int, i: int, j: int) -> int:
        return max(0, t - self.max_delay)

    def beta_uniform(self, t: int) -> Optional[int]:
        return max(0, t - self.max_delay)

    def __repr__(self) -> str:
        return (f"AdversarialStaleSchedule(n={self.n}, "
                f"max_delay={self.max_delay}, burst={self.burst})")


#: :meth:`CompiledSchedule.derived_max_read_back` per source schedule,
#: ``{horizon: bound}``: ints only, as a compiled form would keep its key
#: alive.
_DERIVED_BOUNDS: "weakref.WeakKeyDictionary[Schedule, Dict[int, int]]" = \
    weakref.WeakKeyDictionary()


class CompiledSchedule(Schedule):
    """A dense, precompiled form of any schedule over a finite horizon.

    The object model answers ``alpha``/``beta`` one query at a time,
    which is exactly what throttles the array engines: a δ step wants
    the activation bits and the read times of every active in-edge as
    arrays, for many trials at once.  ``CompiledSchedule`` hands over,
    for a *window* of steps at once:

    * the ``(count, n)`` activation bitmask rows of ``count``
      consecutive steps (:meth:`alpha_masks`, the source's window hook);
    * the read times over the in-edges the caller names, of one step
      or of one step per node, in one call (:meth:`beta_times_for`, the
      source's bulk hook) — the per-edge read-back arrays a δ window
      gathers from.  Neither is cached here: the in-edges are the
      caller's edge layout, and the δ planner keeps each (schedule,
      step) for the trials that share it.

    Equivalence contract (held by
    ``tests/core/test_compiled_schedule.py``): for every ``t`` in the
    horizon, ``alpha(t)`` and ``beta(t, i, j)`` answer exactly as the
    source schedule does (β of inactive nodes delegates to the source —
    the recursion never reads those), queries past the horizon delegate
    wholesale, and admissibility is preserved verbatim.

    ``max_read_back`` returns the source's declared bound when it has
    one; when the source declares none (β may reach arbitrarily far
    back *in general*), the compiled form **derives** the bound
    actually attained by the active reads inside the horizon — finite
    by construction — which is what lets ring-buffer engines run
    schedules the object form could only serve with a full history.

    The object form's answers are compiled lazily, one step at a time
    with a small sliding cache, so memory stays O(steps_kept · n)
    however long the horizon is (plus the full β rows ``beta`` has asked
    for, at most O(steps_kept · n²)); the window forms keep nothing.
    """

    #: compiled steps kept alive; the recursion walks t forward, so a
    #: handful covers current-step reads plus validation revisits.
    _KEEP_STEPS = 4

    def __init__(self, source: Schedule, horizon: int):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        super().__init__(source.n)
        self.source = source
        self.horizon = horizon
        self._steps = _PerStepMemo(keep=self._KEEP_STEPS)

    @classmethod
    def ensure(cls, schedule: Schedule, horizon: int) -> "CompiledSchedule":
        """Wrap ``schedule`` unless it is already compiled far enough."""
        if isinstance(schedule, cls) and schedule.horizon >= horizon:
            return schedule
        source = schedule.source if isinstance(schedule, cls) else schedule
        return cls(source, horizon)

    # ------------------------------------------------------------------
    # Step compilation
    # ------------------------------------------------------------------

    def _step(self, t: int) -> tuple:
        """``(act set, full-row dict)``: α compiled for the step, and
        the full β rows the object form's ``beta`` has read
        (:meth:`_row`); the array engines never fill that dict."""
        memo = self._steps.row(t)
        step = memo.get(t)
        if step is None:
            step = memo[t] = (frozenset(self.source.alpha(t)), {})
        return step

    def _row(self, t: int, i: int):
        """Node ``i``'s full read-time row at ``t``, for :meth:`beta`
        (cached per step)."""
        rows = self._step(t)[1]
        row = rows.get(i)
        if row is None:
            row = rows[i] = self.source.beta_row(t, i)
        return row

    # ------------------------------------------------------------------
    # Schedule protocol (the equivalence contract)
    # ------------------------------------------------------------------

    def alpha(self, t: int) -> FrozenSet[int]:
        if not (1 <= t <= self.horizon):
            return self.source.alpha(t)
        return self._step(t)[0]

    def beta(self, t: int, i: int, j: int) -> int:
        if not (1 <= t <= self.horizon):
            return self.source.beta(t, i, j)
        return int(self._row(t, i)[j])

    def beta_uniform(self, t: int) -> Optional[int]:
        return self.source.beta_uniform(t)

    # ------------------------------------------------------------------
    # Window forms (what the δ planner of the codes rungs consumes)
    # ------------------------------------------------------------------

    def alpha_masks(self, t: int, count: int):
        """The source's ``(count, n)`` activation rows from ``t`` — the
        same inside the horizon and past it."""
        return self.source.alpha_masks(t, count)

    def beta_times_for(self, t, nodes, sources, counts):
        """The source's read times over the given in-edges
        (:meth:`Schedule.beta_times_for`), inside the horizon or past
        it."""
        return self.source.beta_times_for(t, nodes, sources, counts)

    # ------------------------------------------------------------------
    # Derived staleness bound
    # ------------------------------------------------------------------

    def max_read_back(self) -> Optional[int]:
        declared = self.source.max_read_back()
        if declared is not None:
            return declared
        return self.derived_max_read_back()

    def derived_max_read_back(self) -> int:
        """The staleness bound the *active reads* attain in the horizon.

        One full pass over the source through the hooks the δ planner
        reads (:meth:`alpha_masks`, :meth:`beta_times_for` over the
        active nodes' full rows, a window of steps per call), so the
        ring is sized for the reads that run; no rows are retained —
        only the running maximum.  O(horizon · |α| · n) β evaluations,
        paid only for schedules that declare no bound, and once per
        source schedule and horizon: every compiled form of one
        schedule object shares the result (:data:`_DERIVED_BOUNDS`).
        """
        bounds = _DERIVED_BOUNDS.setdefault(self.source, {})
        worst = bounds.get(self.horizon)
        if worst is None:
            n = self.n
            # steps per call: about 64k read times
            chunk = max(1, (1 << 16) // (n * n))
            worst = 1
            for t in range(1, self.horizon + 1, chunk):
                steps, nodes = _np.nonzero(self.alpha_masks(
                    t, min(chunk, self.horizon + 1 - t)))
                if nodes.size:
                    times = self.beta_times_for(
                        t + steps, nodes, _np.tile(_np.arange(n), nodes.size),
                        _np.full(nodes.size, n))
                    worst = max(worst, int(
                        (_np.repeat(t + steps, n) - times).max()))
            bounds[self.horizon] = worst
        return worst

    def __repr__(self) -> str:
        return f"CompiledSchedule({self.source!r}, horizon={self.horizon})"


def schedule_zoo(n: int, seeds: Sequence[int] = (0, 1, 2)) -> List[Schedule]:
    """A representative collection of admissible schedules for experiments.

    Used by the absolute-convergence benches: the theorems quantify over
    *all* schedules, so experiments sample widely across qualitatively
    different ones.
    """
    zoo: List[Schedule] = [
        SynchronousSchedule(n),
        RoundRobinSchedule(n),
        FixedDelaySchedule(n, delay=2),
        FixedDelaySchedule(n, delay=5),
        AdversarialStaleSchedule(n, max_delay=6, burst=2),
    ]
    for s in seeds:
        zoo.append(RandomSchedule(n, seed=s, activation_prob=0.4, max_delay=4))
        zoo.append(RandomSchedule(n, seed=1000 + s, activation_prob=0.8,
                                  max_delay=7))
    return zoo
