"""Unit tests for δ (Section 3.1): recursion, recovery of σ, convergence,
and the history-ring staleness guard of the codes-based rungs."""

import random

import pytest

from repro.algebras import HopCountAlgebra
from repro.core import (
    DELTA_WINDOW,
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    RoutingState,
    SynchronousSchedule,
    delta_step,
    is_stable,
    random_state,
    sigma,
    synchronous_fixed_point,
)
from repro.core.schedule import Schedule
from repro.session import EngineSpec, RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory
from tests.conftest import bgp_net, finite_net, hop_net


class TestDeltaRecoversSigma:
    """With α(t) = V and β(t,i,j) = t-1, δ is exactly σ (Section 3.1)."""

    def test_stepwise_equality(self):
        net = hop_net(4)
        alg = net.algebra
        sched = SynchronousSchedule(4)
        X = RoutingState.identity(alg, 4)
        history = [X]
        sigma_state = X
        for t in range(1, 8):
            history.append(delta_step(net, sched, history, t))
            sigma_state = sigma(net, sigma_state)
            assert history[t].equals(sigma_state, alg)


class TestDeltaMechanics:
    def test_inactive_nodes_keep_their_rows(self):
        net = hop_net(4)
        alg = net.algebra
        sched = RoundRobinSchedule(4)   # only node (t-1) % n activates
        X = RoutingState.filled(9, 4)
        step1 = delta_step(net, sched, [X], 1)
        # node 0 activated, others untouched
        assert step1.row(1) == X.row(1)
        assert step1.row(2) == X.row(2)
        assert step1.get(0, 0) == alg.trivial

    def test_delta_uses_historic_states(self):
        """With delay d, activations at t read states from t - d."""
        net = hop_net(3)
        alg = net.algebra
        sched = FixedDelaySchedule(3, delay=2)
        X0 = RoutingState.identity(alg, 3)
        history = [X0]
        for t in range(1, 4):
            history.append(delta_step(net, sched, history, t))
        # at t=1 and t=2, reads clamp to the initial state, so both
        # steps recompute from X0 and agree
        assert history[1].equals(history[2], alg)


class TestDeltaConvergence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_to_sync_fixed_point(self, seed):
        net = hop_net(4)
        alg = net.algebra
        fp = synchronous_fixed_point(net)
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(4, seed=seed), RoutingState.identity(alg, 4))
        assert res.converged
        assert res.state.equals(fp, alg)
        assert is_stable(net, res.state)

    def test_converged_at_is_consistent(self):
        net = hop_net(4)
        res = RoutingSession(net, "incremental").delta(
            RandomSchedule(4, seed=5),
            RoutingState.filled(net.algebra.invalid, 4))
        assert res.converged
        assert res.converged_at is not None
        assert res.converged_at <= res.steps

    def test_history_kept_on_request(self):
        net = hop_net(3)
        res = RoutingSession(net, "incremental").delta(
            SynchronousSchedule(3), RoutingState.identity(net.algebra, 3),
            keep_history=True)
        assert res.history is not None
        assert len(res.history) == res.steps + 1

    def test_fixed_point_accessor_raises_on_divergence(self):
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").delta(
            SynchronousSchedule(net.n), stale, max_steps=40)
        assert not res.converged
        with pytest.raises(ValueError):
            _ = res.fixed_point


class TestAbsoluteConvergenceExperiment:
    def test_positive_case(self):
        net = finite_net(4, levels=6, seed=1)
        starts = [RoutingState.identity(net.algebra, 4),
                  RoutingState.filled(net.algebra.invalid, 4),
                  RoutingState.filled(3, 4)]
        schedules = [SynchronousSchedule(4), RoundRobinSchedule(4),
                     RandomSchedule(4, seed=9)]
        report = RoutingSession(net, "incremental").delta_grid(
            [(sched, start) for start in starts for sched in schedules])
        assert report.absolute, f"{len(report.distinct_fixed_points)} FPs"
        assert report.runs == 9
        assert report.max_steps >= 1
        assert report.mean_steps > 0

    def test_empty_report_statistics(self):
        r = RoutingSession(hop_net(3), "incremental").delta_grid([])
        assert r.runs == 0 and r.all_converged
        assert r.max_steps == 0
        assert r.mean_steps == 0.0


class TestRandomState:
    def test_entries_come_from_sampler(self, rng):
        net = hop_net(4)
        X = random_state(net.algebra, 4, rng)
        carrier = set(net.algebra.routes())
        for (_i, _j, r) in X.entries():
            assert r in carrier

    def test_custom_sampler(self, rng):
        X = random_state(None, 3, rng, sampler=lambda r: 42)
        assert all(v == 42 for (_i, _j, v) in X.entries())


# ----------------------------------------------------------------------
# History-ring staleness guard (vectorized compiled step, remote windows)
# ----------------------------------------------------------------------


def _ring_net(n, seed):
    alg = HopCountAlgebra(16)
    return erdos_renyi(alg, n, 0.3, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


#: the rungs that run δ against a bounded history ring, with the spec
#: each needs (the remote rung gets a 2-shard loopback transport)
RING_SPECS = {"vectorized": {}, "remote": {"remote_workers": 2}}


def _ring_session(net, rung):
    return RoutingSession(net, EngineSpec(rung, **RING_SPECS[rung]))


class _Lying(Schedule):
    def alpha(self, t):
        return set(range(self.n))

    def beta(self, t, i, k):
        return max(0, t - 6)             # reads 6 back...

    def max_read_back(self):
        return 2                         # ...but declares 2


class _Overreaching(Schedule):
    def alpha(self, t):
        return set(range(self.n)) if t % 2 else {t % self.n}

    def beta(self, t, i, k):
        return max(0, t - 4)             # 2 past the declared bound...

    def max_read_back(self):
        return 2                         # ...but within the +2 window


class _Unclamped(Schedule):
    def alpha(self, t):
        return set(range(self.n))

    def beta(self, t, i, k):
        return t - 3                     # goes negative at t = 1, 2

    def max_read_back(self):
        return 3


class _LiesLate(Schedule):
    """Declares bound 1 and reads one step back — until ``bad_from``,
    from which it reads 9 back."""

    def __init__(self, n, bad_from):
        super().__init__(n)
        self.bad_from = bad_from

    def alpha(self, t):
        return frozenset(range(self.n))

    def beta(self, t, i, k):
        return max(0, t - 9) if t >= self.bad_from else t - 1

    def max_read_back(self):
        return 1


@pytest.mark.parametrize("rung", sorted(RING_SPECS))
class TestRingStaleness:
    """A schedule that reads further back than it declared must fail
    loudly, exactly where :class:`~repro.core.incremental.BoundedHistory`
    would, on every rung that keeps a bounded ring."""

    def test_overdeclared_read_back_raises_lookup_error(self, rung):
        net = _ring_net(8, seed=10)
        start = RoutingState.identity(net.algebra, net.n)
        with _ring_session(net, rung) as s:
            with pytest.raises(LookupError):
                s.delta(_Lying(net.n), start, max_steps=60)

    def test_reads_slightly_past_declaration_match_serial(self, rung):
        """BoundedHistory tolerates reads up to (declared bound + 2)
        before declaring eviction; the ring must tolerate — and compute
        identically on — exactly the same reads."""
        net = _ring_net(9, seed=12)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        ref = RoutingSession(net, "incremental").delta(
            _Overreaching(net.n), start, max_steps=200)
        with _ring_session(net, rung) as s:
            res = s.delta(_Overreaching(net.n), start, max_steps=200)
        assert res.resolution.chosen == rung
        assert res.converged == ref.converged
        assert res.converged_at == ref.converged_at
        assert res.state.equals(ref.state, alg)

    def test_negative_beta_raises_lookup_error(self, rung):
        """A β that forgets the max(0, …) clamp (S2 violation) must not
        wrap the ring modulo into an arbitrary slot."""
        net = _ring_net(8, seed=10)
        start = RoutingState.identity(net.algebra, net.n)
        with _ring_session(net, rung) as s:
            with pytest.raises(LookupError):
                s.delta(_Unclamped(net.n), start, max_steps=60)

    def test_bad_step_past_convergence_is_never_evaluated(self, rung):
        """A run never looks at schedule steps after its convergence
        point, so a staleness violation located there must not raise —
        even on the remote rung, whose window of steps is read off the
        schedule before the workers execute it."""
        net = _ring_net(10, seed=20)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        ref = RoutingSession(net, "incremental").delta(
            _LiesLate(net.n, bad_from=10 ** 6), start, max_steps=400)
        assert ref.converged
        # the violation sits right after convergence, inside the same
        # remote window
        assert ref.steps % DELTA_WINDOW != 0
        lies = _LiesLate(net.n, bad_from=ref.steps + 1)
        with _ring_session(net, rung) as s:
            res = s.delta(lies, start, max_steps=400)
            assert res.converged and res.converged_at == ref.converged_at
            assert res.state.equals(ref.state, alg)
            # a run that genuinely reaches its violation still fails
            with pytest.raises(LookupError):
                s.delta(_LiesLate(net.n, bad_from=2), start, max_steps=400)


# ----------------------------------------------------------------------
# The object rungs' stability check runs once per constant run
# ----------------------------------------------------------------------


@pytest.mark.parametrize("rung", ["naive", "incremental"])
def test_one_stability_check_per_constant_run(rung, monkeypatch, extensions):
    """A state that failed ``is_stable`` keeps failing it until it
    changes, so each constant run is checked once, when it first spans
    the stability window — and each check is one cold σ round of edge
    calls.  The run ends where checking at every step ended it."""
    from repro.core import asynchronous

    net = bgp_net(6, seed=3)
    extensions.install(net)
    alg, n = net.algebra, net.n
    start = random_state(alg, n, random.Random(4))
    extensions.take()
    assert not is_stable(net, start)
    round_cost = extensions.take()
    checks = []
    real = asynchronous.is_stable

    def counted(network, state):
        extensions.take()
        ok = real(network, state)
        checks.append(extensions.take())
        return ok

    monkeypatch.setattr(asynchronous, "is_stable", counted)
    with RoutingSession(net, rung) as s:
        res = s.delta(RoundRobinSchedule(n), start, max_steps=400,
                      keep_history=True)
    monkeypatch.undo()
    assert res.converged
    window = 3                        # declared read-back 1, plus 2
    unchanged, first = 0, []
    for t in range(1, res.steps + 1):
        same = res.history[t].equals(res.history[t - 1], alg)
        unchanged = unchanged + 1 if same else 0
        if unchanged == window:
            first.append(t)
    assert checks == [round_cost] * len(first)
    # the first step of a constant run, once it spans the window, that
    # is σ-stable: where a check at every such step stops the run
    stop = next(t for t in range(1, res.steps + 1)
                if t - window >= 0 and all(
                    res.history[s].equals(res.history[t], alg)
                    for s in range(t - window, t))
                and is_stable(net, res.history[t]))
    assert (res.steps, res.converged_at) == (stop, first[-1] - window)
