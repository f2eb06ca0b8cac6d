"""Unit tests for Üresin–Dubois schedules (Section 3.1, axioms S1–S3)."""

import hashlib

import pytest

from repro.core import (
    AdversarialStaleSchedule,
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    SynchronousSchedule,
    schedule_zoo,
)


ALL_SCHEDULES = [
    SynchronousSchedule(5),
    RoundRobinSchedule(5),
    FixedDelaySchedule(5, delay=3),
    RandomSchedule(5, seed=1),
    RandomSchedule(5, seed=2, activation_prob=0.1, max_delay=9),
    AdversarialStaleSchedule(5, max_delay=6, burst=2),
]


class TestAxioms:
    @pytest.mark.parametrize("sched", ALL_SCHEDULES,
                             ids=repr)
    def test_admissible(self, sched):
        assert sched.is_admissible(horizon=300), sched.validate(300)

    @pytest.mark.parametrize("sched", ALL_SCHEDULES,
                             ids=repr)
    def test_s2_beta_before_t(self, sched):
        for t in range(1, 60):
            for i in range(sched.n):
                for j in range(sched.n):
                    b = sched.beta(t, i, j)
                    assert 0 <= b < t

    @pytest.mark.parametrize("sched", ALL_SCHEDULES,
                             ids=repr)
    def test_s1_every_node_activates(self, sched):
        seen = set()
        for t in range(1, 200):
            seen |= set(sched.alpha(t))
        assert seen == set(range(sched.n))


class TestSynchronousSchedule:
    def test_everyone_every_step(self):
        s = SynchronousSchedule(4)
        assert s.alpha(1) == frozenset({0, 1, 2, 3})
        assert s.beta(9, 2, 3) == 8


class TestRoundRobin:
    def test_cycles_through_nodes(self):
        s = RoundRobinSchedule(3)
        assert [sorted(s.alpha(t)) for t in (1, 2, 3, 4)] == \
            [[0], [1], [2], [0]]


class TestFixedDelay:
    def test_reads_delay_steps_back(self):
        s = FixedDelaySchedule(3, delay=4)
        assert s.beta(10, 0, 1) == 6
        assert s.beta(2, 0, 1) == 0   # clamped at the initial state

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError):
            FixedDelaySchedule(3, delay=0)


class TestRandomSchedule:
    def test_deterministic_in_seed(self):
        a = RandomSchedule(6, seed=42)
        b = RandomSchedule(6, seed=42)
        for t in range(1, 50):
            assert a.alpha(t) == b.alpha(t)
            assert a.beta(t, 1, 2) == b.beta(t, 1, 2)

    def test_beta_is_a_function(self):
        """β must return the same value when queried twice — the δ
        recursion re-reads it."""
        s = RandomSchedule(4, seed=7)
        assert s.beta(33, 2, 1) == s.beta(33, 2, 1)

    def test_different_seeds_differ(self):
        a = RandomSchedule(6, seed=1)
        b = RandomSchedule(6, seed=2)
        assert any(a.alpha(t) != b.alpha(t) for t in range(1, 50))

    def test_bounded_staleness(self):
        s = RandomSchedule(4, seed=3, max_delay=5)
        for t in range(1, 100):
            for i in range(4):
                for j in range(4):
                    assert t - s.beta(t, i, j) <= 5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomSchedule(3, activation_prob=0.0)
        with pytest.raises(ValueError):
            RandomSchedule(3, max_delay=0)


#: SHA-256 of every ``alpha(t)`` and ``beta_row(t, i)`` for t ≤ 200 of
#: :data:`_PINNED_SCHEDULES`: the seed → schedule mapping of
#: ``SCHEDULE_SEED_VERSION`` 2.  A hashing shortcut that moves any draw
#: changes which schedule a seed names, and fails here.
_PINNED_SCHEDULES = (
    dict(n=32, seed=0, activation_prob=0.4, max_delay=4),       # the zoo's
    dict(n=32, seed=1000, activation_prob=0.8, max_delay=7),    # two kinds
    dict(n=1, seed=3),
    dict(n=7, seed=42, max_delay=5, max_silence=3),
    dict(n=64, seed=123_456_789, activation_prob=0.5, max_delay=6),
)
_SCHEDULE_DIGEST = ("962655ad9e9b6393bff238ee2685e710"
                    "6eec6676382f5dc5a77c9aa48e49d0fb")


class TestSeedMapping:
    def test_seed_to_schedule_mapping_is_pinned(self):
        assert RandomSchedule.SCHEDULE_SEED_VERSION == 2
        digest = hashlib.sha256()
        for params in _PINNED_SCHEDULES:
            sched = RandomSchedule(**params)
            for t in range(1, 201):
                digest.update(f"{params} {t} {sorted(sched.alpha(t))}\n"
                              .encode())
                for i in range(sched.n):
                    digest.update(f"{sched.beta_row(t, i)}\n".encode())
        assert digest.hexdigest() == _SCHEDULE_DIGEST


class TestZoo:
    def test_zoo_is_populated_and_admissible(self):
        zoo = schedule_zoo(4)
        assert len(zoo) >= 8
        for s in zoo:
            assert s.n == 4
            assert s.is_admissible(horizon=200), (s, s.validate(200))

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            SynchronousSchedule(0)
