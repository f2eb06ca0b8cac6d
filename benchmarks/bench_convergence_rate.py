"""Experiment R — Section 8.1: convergence-rate families.

The paper states (citing its companion work [5]) that distributive
algebras converge in O(n) synchronous rounds while non-distributive
increasing algebras need O(n²) in the worst case, the bound being
tight for some algebra/network family.

We measure three families and fit growth exponents:

* distributive control — shortest paths on a line: Θ(n) rounds;
* preference cascade — an increasing SPP family whose rounds track n
  with a super-diameter constant;
* path hunting — exploration cliques after destination withdrawal:
  rounds Θ(n) but total route churn Θ(n²) (the quadratic blow-up shows
  up in work, matching BGP path-exploration practice).

Every measured round count is also checked against the *certified*
bound from the ultrametric proof (rounds ≤ d_max).
"""

import pytest

from bench_helpers import emit, fmt_row
from repro.algebras import HopCountAlgebra
from repro.analysis import measure_sync, pv_bounds, rate_sweep
from repro.core import synchronous_fixed_point
from repro.session import RoutingSession
from repro.topologies import (
    exploration_clique,
    line,
    preference_cascade,
    uniform_weight_factory,
)


def hop_line(n):
    alg = HopCountAlgebra(2 * n)
    return line(alg, n, uniform_weight_factory(alg, 1, 1))


@pytest.mark.benchmark(group="rate")
def test_rate_distributive_control(benchmark):
    sweep = benchmark.pedantic(
        rate_sweep, args=("hop-line", hop_line, [4, 8, 16, 24]),
        rounds=1, iterations=1)
    emit("R / §8.1 — distributive control (shortest paths on a line)",
         sweep.table().splitlines())
    assert 0.8 <= sweep.exponent <= 1.2


@pytest.mark.benchmark(group="rate")
def test_rate_preference_cascade(benchmark):
    sweep = benchmark.pedantic(
        rate_sweep, args=("cascade", preference_cascade, [4, 8, 16, 24]),
        rounds=1, iterations=1)
    emit("R / §8.1 — increasing non-distributive cascade",
         sweep.table().splitlines())
    # rounds track n (information crosses the whole line serially)
    assert sweep.exponent >= 0.8
    rounds = [p.rounds for p in sweep.points]
    assert rounds == sorted(rounds)


@pytest.mark.benchmark(group="rate")
def test_rate_path_hunting_churn_quadratic(benchmark):
    """Withdraw the destination from a clique and count *route changes*
    during re-convergence: the measured churn grows ≈ n² even though
    rounds stay ≈ n — the quadratic cost the rate discussion targets."""
    import numpy as np

    def run():
        rows = []
        for n in (4, 5, 6, 7):
            net = exploration_clique(n)
            fp = synchronous_fixed_point(net)
            for i in range(1, n):
                net.remove_edge(i, 0)
                net.remove_edge(0, i)
            res = RoutingSession(net, "incremental").sigma(
                fp, max_rounds=500, keep_trajectory=True)
            churn = 0
            for prev, cur in zip(res.trajectory, res.trajectory[1:]):
                for a in range(n):
                    for b in range(n):
                        if not net.algebra.equal(prev.get(a, b),
                                                 cur.get(a, b)):
                            churn += 1
            rows.append((n, res.rounds, churn))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (6, 8, 8)
    lines = [fmt_row(("n", "rounds", "churn"), widths)]
    lines += [fmt_row(r, widths) for r in rows]
    import numpy as np

    ns = [r[0] for r in rows]
    churn = [r[2] for r in rows]
    slope, _ = np.polyfit(np.log(ns), np.log(churn), 1)
    lines.append(f"churn growth exponent: {slope:.2f} "
                 "(≈ 2 ⇒ quadratic work, the §8.1 regime)")
    emit("R / §8.1 — path hunting after withdrawal (clique)", lines)
    assert slope > 1.3


@pytest.mark.benchmark(group="rate")
def test_measured_rounds_respect_certified_bounds(benchmark):
    """The ultrametric proof certifies rounds ≤ d_max; check it on the
    cascade family (the loose-but-sound bound of Lemma 2)."""
    def run():
        rows = []
        for n in (4, 6, 8):
            net = preference_cascade(n)
            m = measure_sync(net)
            bound = pv_bounds(net).sync_round_bound
            rows.append((n, m.rounds, bound))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (6, 8, 18)
    lines = [fmt_row(("n", "rounds", "certified bound"), widths)]
    lines += [fmt_row(r, widths) for r in rows]
    emit("R / §8.1 — measured rounds vs certified d_max bound", lines)
    assert all(r <= b for (_n, r, b) in rows)
