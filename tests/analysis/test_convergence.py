"""Convergence measurement wrappers."""

from repro.analysis import measure_sync, sample_starts
from repro.core import RoutingState, synchronous_fixed_point
from repro.session import RoutingSession
from tests.conftest import bgp_net, hop_net


class TestMeasureSync:
    def test_rounds_and_churn_positive(self):
        m = measure_sync(hop_net(5))
        assert m.converged
        assert m.rounds >= 2
        assert m.changed_entries >= m.rounds

    def test_zero_rounds_from_fixed_point(self):
        net = hop_net(4)
        fp = synchronous_fixed_point(net)
        m = measure_sync(net, start=fp)
        assert m.converged and m.rounds == 0 and m.changed_entries == 0

    def test_non_convergence_reported(self):
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        m = measure_sync(net, start=stale, max_rounds=30)
        assert not m.converged


class TestSampleStarts:
    def test_includes_identity_by_default(self):
        net = hop_net(3)
        starts = sample_starts(net, 4, seed=1)
        assert len(starts) == 5
        assert starts[0] == RoutingState.identity(net.algebra, 3)

    def test_reproducible(self):
        net = hop_net(3)
        a = sample_starts(net, 4, seed=9)
        b = sample_starts(net, 4, seed=9)
        assert all(x == y for x, y in zip(a, b))


class TestRunAbsoluteConvergence:
    def test_hop_count_is_absolute(self):
        report = RoutingSession(hop_net(4), "incremental").converges(
            n_starts=3, seed=1, max_steps=1500).grid
        assert report.absolute

    def test_bgp_is_absolute(self):
        report = RoutingSession(bgp_net(4, seed=2), "incremental").converges(
            n_starts=2, seed=2, max_steps=1500).grid
        assert report.absolute

    def test_report_counts_runs(self):
        report = RoutingSession(hop_net(3), "incremental").converges(
            n_starts=2, seed=3, max_steps=1500).grid
        # (2 starts + identity) x |zoo|
        from repro.core import schedule_zoo

        assert report.runs == 3 * len(schedule_zoo(3, seeds=(3, 20)))
