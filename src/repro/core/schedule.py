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
the array engines (the compiled δ step of :mod:`repro.core.vectorized`
and the :mod:`repro.core.remote` coordinator): it precompiles any
schedule over a finite horizon into per-step activation bitmask rows
and per-active-node β read-time arrays, with an equivalence contract to
the object form (``alpha``/``beta`` answer identically) and a *derived*
``max_read_back`` for schedules that declare none.
"""

from __future__ import annotations

import hashlib
import itertools
from abc import ABC, abstractmethod
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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


def _splitmix_row(base: int, count: int):
    """``count`` independent 64-bit draws from one row ``base``.

    The row-based form of counter hashing: one blake2b digest keys the
    row (collision-resistant across (seed, tag, t, i) counters), and a
    splitmix64 finalizer expands it into per-lane draws — numpy-
    vectorizable, so a whole row of schedule decisions costs one hash
    plus a handful of uint64 array ops instead of ``count`` digests.
    Returns a uint64 ndarray.
    """
    lanes = _SM_LANES.get(count)
    if lanes is None:
        lanes = _np.arange(1, count + 1,
                           dtype=_np.uint64) * _np.uint64(_SM_GAMMA)
        _SM_LANES[count] = lanes
    z = _np.uint64(base & _MASK64) + lanes
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


class Schedule(ABC):
    """Abstract (α, β) schedule over ``n`` nodes."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("schedule needs n >= 1 nodes")
        self.n = n

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

        The bulk form the schedule compiler and the array engines
        consume.  Uniform-β schedules (:meth:`beta_uniform`) answer
        with one constant fill — a single point of truth, so the fast
        paths that consult ``beta_uniform`` directly can never drift
        from the row form; everything else queries :meth:`beta` per
        source.
        """
        uniform = self.beta_uniform(t)
        if uniform is not None:
            return [uniform] * self.n
        beta = self.beta
        return [beta(t, i, j) for j in range(self.n)]

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

    def beta(self, t: int, i: int, j: int) -> int:
        return t - 1

    def beta_uniform(self, t: int) -> Optional[int]:
        return t - 1

    def max_read_back(self) -> Optional[int]:
        return 1

    def __repr__(self) -> str:
        return f"SynchronousSchedule(n={self.n})"


class RoundRobinSchedule(Schedule):
    """One node activates per step, cyclically, reading latest data.

    The classic "Gauss–Seidel" schedule: node ``(t-1) mod n`` activates
    at ``t`` with β = t - 1.
    """

    def alpha(self, t: int) -> FrozenSet[int]:
        return frozenset({(t - 1) % self.n})

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
    (:func:`_splitmix_row`, numpy-vectorized), and the rows of the
    last few distinct ``t`` values are cached (:class:`_PerStepMemo`)
    — so a whole row of schedule decisions costs one hash plus array
    ops, and the strict δ recursion's ``n``-fold redundant β queries
    hit the memo.  The schedule stays a deterministic pure function of
    its seed — but note the row-hash rework (PR 4) changed *which*
    schedule each seed denotes relative to the earlier per-(t, i, j)
    blake2b draws: experiments pinned to old seeds sample a different
    (equally admissible) schedule, and `BENCH_core.json` was
    regenerated accordingly.  :data:`SCHEDULE_SEED_VERSION` records
    that semantic break so recorded experiments can name which mapping
    their seeds assume.
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

    def alpha(self, t: int) -> FrozenSet[int]:
        memo = self._alpha_memo.row(t)
        cached = memo.get("alpha")
        if cached is not None:
            return cached
        draws = _splitmix_row(_hash_int(self.seed, "act", t), self.n)
        threshold = int(self.activation_prob * (2 ** 64))
        forced = t % self.max_silence     # keeps S1 true at tiny probabilities
        if threshold > _MASK64:           # activation_prob == 1.0
            mask = _np.ones(self.n, dtype=bool)
        else:
            mask = draws < _np.uint64(threshold)
        mask |= (_np.arange(self.n) % self.max_silence) == forced
        result = frozenset(_np.nonzero(mask)[0].tolist())
        memo["alpha"] = result
        return result

    def _delay_row(self, t: int, i: int):
        """Node ``i``'s per-source delay draws at ``t`` (cached per t)."""
        memo = self._beta_memo.row(t)
        row = memo.get(i)
        if row is None:
            draws = _splitmix_row(_hash_int(self.seed, "delay", t, i), self.n)
            row = 1 + (draws % _np.uint64(self.max_delay)).astype(_np.int64)
            memo[i] = row
        return row

    def beta(self, t: int, i: int, j: int) -> int:
        return max(0, t - int(self._delay_row(t, i)[j]))

    def beta_row(self, t: int, i: int) -> List[int]:
        return _np.maximum(0, t - self._delay_row(t, i)).tolist()

    def beta_row_array(self, t: int, i: int):
        """``beta_row`` as an int64 ndarray, no list round-trip (the
        compiled hot path; values identical to :meth:`beta_row`)."""
        return _np.maximum(0, t - self._delay_row(t, i))

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

    def beta(self, t: int, i: int, j: int) -> int:
        return max(0, t - self.max_delay)

    def beta_uniform(self, t: int) -> Optional[int]:
        return max(0, t - self.max_delay)

    def __repr__(self) -> str:
        return (f"AdversarialStaleSchedule(n={self.n}, "
                f"max_delay={self.max_delay}, burst={self.burst})")


class CompiledSchedule(Schedule):
    """A dense, precompiled form of any schedule over a finite horizon.

    The object model answers ``alpha``/``beta`` one query at a time,
    which is exactly what throttles the array engines: a batched δ step
    wants node ``i``'s activation bit and its whole β read-time row as
    arrays, for many trials at once.  ``CompiledSchedule`` materialises,
    per step ``t ∈ [1, horizon]``:

    * the activation set **and** an ``(n,)`` bitmask row
      (:meth:`alpha_mask` — stacked over steps this is the ``(T, n)``
      activation bitmask of the schedule);
    * for every *active* node, its β read-time row as an ``(n,)`` int
      array (:meth:`beta_times`) — the per-edge read-back arrays a δ
      activation gathers from.

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

    Compilation is lazy, in blocks of ``block`` steps with a small
    sliding cache, so a run that converges after 60 steps never pays
    for a 2000-step horizon, and memory stays
    O(blocks_kept · block · |α| · n) however long the horizon is.  The
    δ step reads one step at a time, so a block is one step by default
    and a run holds the β rows of only a few steps (one step of a
    ``RandomSchedule(800)`` is about 2.5 MB of them).
    """

    #: compiled blocks kept alive; the recursion walks t forward, so a
    #: handful covers current-step reads plus validation revisits.
    _KEEP_BLOCKS = 4

    def __init__(self, source: Schedule, horizon: int, block: int = 1):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if block < 1:
            raise ValueError("block must be >= 1")
        super().__init__(source.n)
        self.source = source
        self.horizon = horizon
        self.block = block
        self._blocks = _PerStepMemo(keep=self._KEEP_BLOCKS)
        self._derived: Optional[int] = None

    @classmethod
    def ensure(cls, schedule: Schedule, horizon: int) -> "CompiledSchedule":
        """Wrap ``schedule`` unless it is already compiled far enough."""
        if isinstance(schedule, cls) and schedule.horizon >= horizon:
            return schedule
        source = schedule.source if isinstance(schedule, cls) else schedule
        return cls(source, horizon)

    # ------------------------------------------------------------------
    # Block compilation
    # ------------------------------------------------------------------

    def _step(self, t: int) -> tuple:
        """``(act set, mask row, full-row dict)``.

        α is compiled eagerly per step (it decides which rows exist at
        all); β rows are compiled **lazily per node** — an eager compile
        would pay O(|α| · n) hash work per step, most of which the δ
        recursion (which gathers only in-neighbour entries) never
        reads.
        """
        blk = self._blocks.row(t // self.block)
        step = blk.get(t)
        if step is None:
            src = self.source
            act = frozenset(src.alpha(t))
            mask = _np.zeros(self.n, dtype=bool)
            if act:
                mask[list(act)] = True
            step = (act, mask, {})
            blk[t] = step
        return step

    def _row(self, t: int, i: int):
        """Node ``i``'s full compiled read-time row at ``t`` (cached)."""
        rows = self._step(t)[2]
        row = rows.get(i)
        if row is None:
            array_form = getattr(self.source, "beta_row_array", None)
            if array_form is not None:
                row = array_form(t, i)
            else:
                row = _np.asarray(self.source.beta_row(t, i), dtype=_np.int64)
            rows[i] = row
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
    # Array forms (what the compiled δ step and the remote coordinator
    # consume)
    # ------------------------------------------------------------------

    def alpha_mask(self, t: int):
        """``(n,)`` bool activation row for ``t`` (within the horizon)."""
        return self._step(t)[1]

    def beta_times(self, t: int, i: int):
        """Node ``i``'s ``(n,)`` int64 read-time row at ``t``."""
        return self._row(t, i)

    def beta_times_for(self, t: int, i: int, sources):
        """Read times for the given source index array only.

        The δ hot path: an activation gathers exclusively from its
        in-neighbours, so this slices the cached full row (uniform-β
        steps never get here: the δ step fills those with one constant,
        :meth:`beta_uniform`).  The slice is *not* cached because
        ``sources`` is a property of the caller's edge layout, not of
        the schedule (one compiled instance may serve engines over
        different networks, or the same network across topology
        mutations).
        """
        return self._row(t, i)[sources]

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

        One full pass over the source (no rows are retained — only the
        running maximum), cached; O(horizon · |α| · n) β evaluations,
        paid once and only for schedules that declare no bound.
        """
        if self._derived is None:
            src = self.source
            worst = 1
            for t in range(1, self.horizon + 1):
                for i in src.alpha(t):
                    row = src.beta_row(t, i)
                    if row:
                        worst = max(worst, t - min(row))
            self._derived = worst
        return self._derived

    def __repr__(self) -> str:
        return (f"CompiledSchedule({self.source!r}, horizon={self.horizon}, "
                f"block={self.block})")


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
