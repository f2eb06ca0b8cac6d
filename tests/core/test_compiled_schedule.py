"""CompiledSchedule ≡ its source Schedule — the equivalence contract.

The batched engine trusts the compiled form blindly (α bitmask rows, β
read-time arrays, derived staleness bound), so the contract is held
property-style over random schedules and horizons: every query a δ
recursion could make must answer exactly as the object form does, the
axioms must be preserved verbatim, and the derived bound must cover
every read the compiled horizon performs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdversarialStaleSchedule,
    CompiledSchedule,
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    Schedule,
    SynchronousSchedule,
    schedule_zoo,
)

np = pytest.importorskip("numpy")


_KINDS = ["sync", "round-robin", "fixed", "adversarial", "random"]


def _random_schedule(draw, kind=None):
    n = draw(st.integers(min_value=1, max_value=9))
    if kind is None:
        kind = draw(st.sampled_from(_KINDS))
    if kind == "sync":
        return SynchronousSchedule(n)
    if kind == "round-robin":
        return RoundRobinSchedule(n)
    if kind == "fixed":
        return FixedDelaySchedule(n, delay=draw(st.integers(1, 6)))
    if kind == "adversarial":
        return AdversarialStaleSchedule(
            n, max_delay=draw(st.integers(1, 7)),
            burst=draw(st.integers(1, 4)))
    return RandomSchedule(
        n, seed=draw(st.integers(0, 2 ** 16)),
        activation_prob=draw(st.sampled_from([0.2, 0.5, 0.9, 1.0])),
        max_delay=draw(st.integers(1, 6)),
        max_silence=draw(st.integers(1, 8)))


class TestEquivalenceContract:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_alpha_beta_identical_over_random_horizons(self, data):
        src = _random_schedule(data.draw)
        horizon = data.draw(st.integers(min_value=1, max_value=90))
        comp = CompiledSchedule(src, horizon)
        for t in range(1, horizon + 1):
            assert comp.alpha(t) == src.alpha(t), t
            mask = comp.alpha_masks(t, 1)[0]
            assert set(np.nonzero(mask)[0].tolist()) == set(src.alpha(t))
            for i in range(src.n):
                for j in range(src.n):
                    assert comp.beta(t, i, j) == src.beta(t, i, j), (t, i, j)
            for i in src.alpha(t):
                assert comp.beta_times_for(
                    t, [i], np.arange(src.n), [src.n]).tolist() == \
                    src.beta_row(t, i)
        # queries past the horizon delegate wholesale
        beyond = horizon + data.draw(st.integers(1, 5))
        assert comp.alpha(beyond) == src.alpha(beyond)
        assert comp.beta(beyond, 0, 0) == src.beta(beyond, 0, 0)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_admissibility_preserved(self, data):
        src = _random_schedule(data.draw)
        horizon = data.draw(st.integers(min_value=20, max_value=80))
        comp = CompiledSchedule(src, horizon)
        assert comp.validate(horizon) == src.validate(horizon)
        assert comp.is_admissible(horizon) == src.is_admissible(horizon)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_declared_bound_is_preserved(self, data):
        src = _random_schedule(data.draw)
        horizon = data.draw(st.integers(min_value=1, max_value=60))
        comp = CompiledSchedule(src, horizon)
        assert comp.max_read_back() == src.max_read_back()

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_derived_bound_covers_every_active_read(self, data):
        base = _random_schedule(data.draw)

        class Undeclared(type(base)):
            def max_read_back(self):
                return None

        src = Undeclared.__new__(Undeclared)
        src.__dict__.update(base.__dict__)
        src.n = base.n
        horizon = data.draw(st.integers(min_value=5, max_value=60))
        comp = CompiledSchedule(src, horizon)
        derived = comp.max_read_back()
        assert derived == comp.derived_max_read_back()
        worst = 1
        for t in range(1, horizon + 1):
            for i in src.alpha(t):
                for j in range(src.n):
                    worst = max(worst, t - src.beta(t, i, j))
        assert derived == worst
        assert derived >= 1


class RowsOnlySchedule(Schedule):
    """A user schedule that defines only ``alpha``/``beta``: it gets the
    base bulk hook (per-row gather) and declares no staleness bound."""

    def __init__(self, n, seed):
        super().__init__(n)
        self.seed = seed

    def alpha(self, t):
        act = {i for i in range(self.n) if (t * 5 + i + self.seed) % 3}
        return frozenset(act or {t % self.n})

    def beta(self, t, i, j):
        return max(0, t - 1 - (t * 7 + i * 3 + j * 5 + self.seed) % 5)


class TestBulkHook:
    """The bulk hook ``beta_times_for(t, nodes, sources, counts)`` —
    what the codes rungs read a whole step's β from — equals the object
    form's β entry for entry."""

    @pytest.mark.parametrize("kind", _KINDS + ["rows-only"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_beta_entry_for_entry(self, kind, data):
        if kind == "rows-only":
            src = RowsOnlySchedule(data.draw(st.integers(1, 9)),
                                   data.draw(st.integers(0, 50)))
        else:
            src = _random_schedule(data.draw, kind)
        n = src.n
        horizon = data.draw(st.integers(1, 40), label="horizon")
        comp = CompiledSchedule(src, horizon)
        # inside the horizon and past it
        t = data.draw(st.integers(1, horizon + 10), label="t")
        # any node subset (the empty one too), each node any sorted
        # source subset (the empty one: a degree-0 node)
        nodes = sorted(data.draw(st.sets(st.integers(0, n - 1)),
                                 label="nodes"))
        per_node = [sorted(data.draw(st.sets(st.integers(0, n - 1))))
                    for _ in nodes]
        sources = np.asarray([j for js in per_node for j in js],
                             dtype=np.intp)
        counts = np.asarray([len(js) for js in per_node], dtype=np.intp)
        expect = [src.beta(t, i, j)
                  for i, js in zip(nodes, per_node) for j in js]
        for sched in (src, comp):
            got = sched.beta_times_for(t, np.asarray(nodes, dtype=np.intp),
                                       sources, counts)
            assert got.dtype == np.int64
            assert got.tolist() == expect

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_derived_bound_of_a_rows_only_schedule(self, data):
        src = RowsOnlySchedule(data.draw(st.integers(1, 9)),
                               data.draw(st.integers(0, 50)))
        horizon = data.draw(st.integers(1, 60))
        assert src.max_read_back() is None
        comp = CompiledSchedule(src, horizon)
        worst = 1
        for t in range(1, horizon + 1):
            for i in src.alpha(t):
                for j in range(src.n):
                    worst = max(worst, t - src.beta(t, i, j))
        assert comp.max_read_back() == comp.derived_max_read_back() == worst


class TestCompileMechanics:
    def test_step_eviction_recompiles_deterministically(self):
        """Revisiting an evicted step must answer identically — the
        compiled form is a pure function of (source, t)."""
        src = RandomSchedule(6, seed=11, max_delay=4)
        comp = CompiledSchedule(src, horizon=300)
        first = {(t, i, j): comp.beta(t, i, j)
                 for t in (1, 2, 3) for i in range(6) for j in range(6)}
        for t in range(4, 300, 4):        # walk far enough to evict t<4
            comp.alpha(t)
        again = {(t, i, j): comp.beta(t, i, j)
                 for t in (1, 2, 3) for i in range(6) for j in range(6)}
        assert first == again

    def test_ensure_reuses_wide_enough_compilations(self):
        src = RandomSchedule(5, seed=2)
        comp = CompiledSchedule(src, horizon=100)
        assert CompiledSchedule.ensure(comp, 50) is comp
        wider = CompiledSchedule.ensure(comp, 200)
        assert wider is not comp and wider.source is src
        assert CompiledSchedule.ensure(src, 10).source is src

    def test_beta_times_for_is_layout_independent(self):
        """The bulk read times must answer per the *caller's* in-edges
        — one compiled instance can serve engines over different edge
        layouts (or the same network across topology mutations)."""
        src = RandomSchedule(8, seed=21, max_delay=4)
        comp = CompiledSchedule(src, horizon=50)
        a = np.asarray([0, 3, 5])
        b = np.asarray([1, 2, 6, 7])
        for t in (1, 9, 30):
            row = src.beta_row(t, 2)
            # a, b, then a again in the other order (no stale cache)
            for sources in (a, b, a):
                assert comp.beta_times_for(
                    t, [2], sources, [sources.size]).tolist() == \
                    [row[j] for j in sources.tolist()]
            # and inside a two-node layout, either node first
            for first, second in ((2, 5), (5, 2)):
                times = comp.beta_times_for(t, [first, second],
                                            np.concatenate((a, b)),
                                            [a.size, b.size]).tolist()
                assert times == [src.beta(t, first, j) for j in a] + \
                    [src.beta(t, second, j) for j in b]

    def test_zoo_compiles(self):
        for src in schedule_zoo(7):
            comp = CompiledSchedule(src, horizon=40)
            for t in (1, 7, 40):
                assert comp.alpha(t) == src.alpha(t)

    def test_rejects_bad_parameters(self):
        src = SynchronousSchedule(3)
        with pytest.raises(ValueError):
            CompiledSchedule(src, horizon=0)


class TestRandomScheduleMemo:
    def test_memoized_draws_match_fresh_instance(self):
        """The per-step memo is caching only: two instances with the
        same seed answer identically under interleaved query orders."""
        a = RandomSchedule(7, seed=42, max_delay=5)
        b = RandomSchedule(7, seed=42, max_delay=5)
        for t in range(1, 50):
            assert a.alpha(t) == b.alpha(t)
            # a queried row-wise, b element-wise, both twice
            for i in range(7):
                row = a.beta_row(t, i)
                assert row == [b.beta(t, i, j) for j in range(7)]
                assert a.beta_row(t, i) == row

    def test_memo_eviction_recomputes_identically(self):
        sched = RandomSchedule(5, seed=9, max_delay=4)
        early = [sched.beta(2, i, j) for i in range(5) for j in range(5)]
        for t in range(3, 60):            # push t=2 out of the memo
            sched.beta(t, 0, 0)
        assert early == [sched.beta(2, i, j)
                         for i in range(5) for j in range(5)]


_SUBCLASS_KINDS = ["alpha-subclass", "beta-subclass"]


def _subclassed(src, kind):
    """A subclass of ``src``'s class that overrides only ``alpha`` (a
    round robin backwards, with a second node every third step) or only
    ``beta`` (a per-(t, i, j) delay), and otherwise ``src`` itself."""
    if kind == "alpha-subclass":
        def alpha(self, t):
            n = self.n
            return frozenset({-t % n, (t // 3) % n} if t % 3 == 0
                             else {-t % n})
        body = {"alpha": alpha}
    else:
        def beta(self, t, i, j):
            return max(0, t - 1 - (t + 2 * i + 3 * j) % 4)
        body = {"beta": beta}
    sub = type(f"Sub{type(src).__name__}", (type(src),), body)
    mine = object.__new__(sub)
    mine.__dict__.update(src.__dict__)
    return mine


def _window_reads(sched, t, count):
    """Every active node of steps t … t + count − 1 (step by step) with
    a random source subset, as the δ planner hands them to β."""
    masks = sched.alpha_masks(t, count)
    steps, nodes = np.nonzero(masks)
    rng = np.random.default_rng(t * 7919 + count)
    per_node = [np.flatnonzero(rng.random(sched.n) < 0.6) for _ in nodes]
    sources = (np.concatenate(per_node) if per_node
               else np.empty(0, dtype=np.intp))
    counts = np.asarray([js.size for js in per_node], dtype=np.intp)
    return t + steps, nodes, sources, counts, per_node


class TestWindowHooks:
    """The window hooks — ``alpha_masks(t, count)`` and β over one step
    time per node — equal the per-step forms, for every schedule class,
    inside and past a compiled horizon."""

    @pytest.mark.parametrize("kind", _KINDS + ["rows-only"])
    @pytest.mark.parametrize("subclass", [None] + _SUBCLASS_KINDS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_window_hooks_equal_the_per_step_forms(self, kind, subclass,
                                                   data):
        """Of every class, and of a subclass that overrides only
        ``alpha`` or only ``beta`` (its parent's closed forms would run
        another schedule)."""
        if kind == "rows-only":
            src = RowsOnlySchedule(data.draw(st.integers(1, 9), label="n"),
                                   data.draw(st.integers(0, 50),
                                             label="seed"))
        else:
            src = _random_schedule(data.draw, kind)
        if subclass is not None:
            src = _subclassed(src, subclass)
        horizon = data.draw(st.integers(1, 40), label="horizon")
        comp = CompiledSchedule(src, horizon)
        # windows inside the horizon, across its end and past it
        t = data.draw(st.integers(1, horizon + 10), label="t")
        count = data.draw(st.integers(1, 30), label="count")
        for sched in (src, comp):
            masks = sched.alpha_masks(t, count)
            assert masks.shape == (count, src.n) and masks.dtype == bool
            for k in range(count):
                assert set(np.flatnonzero(masks[k]).tolist()) == \
                    set(src.alpha(t + k)), (t, k)
        times, nodes, sources, counts, per_node = _window_reads(
            src, t, count)
        expect = [src.beta(int(s), int(i), int(j))
                  for s, i, js in zip(times, nodes, per_node) for j in js]
        for sched in (src, comp):
            got = sched.beta_times_for(times, nodes, sources, counts)
            assert got.dtype == np.int64 and got.tolist() == expect
            for s in range(t, t + count):
                uniform = sched.beta_uniform(s)
                assert uniform is None or all(
                    src.beta(s, i, j) == uniform
                    for i in range(src.n) for j in range(src.n))
                assert sched.beta_row(s, 0) == \
                    [src.beta(s, 0, j) for j in range(src.n)]

    def test_window_of_random_schedule_matches_rows_at_scale(self):
        """The zoo's random schedules at the benchmark's size: one
        window of 64 steps draws exactly ``alpha`` and ``beta_row``."""
        for src in schedule_zoo(32, seeds=(5, 22))[5:]:
            masks = src.alpha_masks(1, 64)
            steps, nodes = np.nonzero(masks)
            assert [set(np.flatnonzero(m).tolist()) for m in masks] == \
                [set(src.alpha(t)) for t in range(1, 65)]
            sources = np.tile(np.arange(32), nodes.size)
            times = CompiledSchedule(src, 10).beta_times_for(
                1 + steps, nodes, sources, np.full(nodes.size, 32))
            assert times.reshape(-1, 32).tolist() == \
                [src.beta_row(int(t), int(i))
                 for t, i in zip(1 + steps, nodes)]
