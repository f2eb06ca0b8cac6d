"""Experiment F1 — Figure 1's implication chain, validated arrow by arrow.

    strictly increasing algebra
      ⇒ (c) ultrametric conditions      [this paper]
      ⇒ (b) ACO conditions              [Gurney]
      ⇒ (a) absolute convergence        [Üresin & Dubois]

Arrow (c) is checked by constructing the Section 4/5 ultrametrics and
testing Theorem 4's preconditions on sampled states; arrows (b)+(a) are
checked operationally: δ runs from many states under many schedules all
reach one fixed point.  A non-increasing control shows the chain's
entrance refusing.

Paper artefact: Figure 1.
"""

import random

import pytest

from bench_helpers import check_mark, emit, fmt_row
from repro.algebras import bad_gadget
from repro.core import (
    DistanceVectorUltrametric,
    PathVectorUltrametric,
    RoutingState,
    enumerate_consistent_routes,
    random_state,
    theorem4_preconditions,
)
from repro.session import RoutingSession
from repro.verification import verify_network
from tests.conftest import bgp_net, finite_net, hop_net, shortest_pv_net


CASES = [
    ("hop-count ring (DV)", lambda: hop_net(4, bound=8), "dv"),
    ("finite-chain ring (DV)", lambda: finite_net(4, levels=6, seed=1), "dv"),
    ("shortest-pv ring (PV)", lambda: shortest_pv_net(4, seed=2), "pv"),
    ("bgp-lite ring (PV)", lambda: bgp_net(4, seed=3), "pv"),
]


def run_chain(build, kind, seed):
    net = build()
    rng = random.Random(seed)
    report = verify_network(net, samples=30)
    states = [RoutingState.identity(net.algebra, net.n)]
    states += [random_state(net.algebra, net.n, rng) for _ in range(5)]
    if kind == "dv":
        metric = DistanceVectorUltrametric(net.algebra)
        routes = list(net.algebra.routes())
    else:
        metric = PathVectorUltrametric(net)
        routes = enumerate_consistent_routes(net.algebra, net)
    checks = theorem4_preconditions(metric, net, states, routes)
    conv = RoutingSession(net, "incremental").converges(
        n_starts=3, seed=seed, max_steps=2500).grid
    return report, checks, conv


@pytest.mark.benchmark(group="figure1")
@pytest.mark.parametrize("name,build,kind", CASES,
                         ids=[c[0].split()[0] for c in CASES])
def test_figure1_chain(benchmark, name, build, kind):
    report, checks, conv = benchmark.pedantic(
        run_chain, args=(build, kind, 11), rounds=1, iterations=1)

    increasing = report.is_strictly_increasing or \
        (kind == "pv" and report.is_increasing)
    lines = [
        f"{name}",
        f"  hypothesis   : increasing{' (strict)' if kind == 'dv' else ''} "
        f"= {check_mark(increasing)}",
    ]
    for c in checks:
        lines.append(f"  arrow (c)    : {c.name:<45s} {check_mark(c.holds)} "
                     f"({c.cases} cases)")
    lines.append(f"  arrows (b,a) : absolute convergence over {conv.runs} "
                 f"(state × schedule) runs = {check_mark(conv.absolute)}")
    emit("F1 / Figure 1 — the implication chain", lines)

    assert increasing
    assert all(c.holds for c in checks)
    assert conv.absolute


@pytest.mark.benchmark(group="figure1")
def test_figure1_chain_refuses_non_increasing(benchmark):
    """Control: BAD GADGET fails the hypothesis, and indeed the orbit
    contraction fails and δ oscillates — no arrow fires vacuously."""
    from repro.core import check_strictly_contracting_on_orbits

    def run():
        net = bad_gadget()
        report = verify_network(net, samples=40)
        # any height assignment over the gadget's candidate routes
        from repro.algebras import spp_fixed_point_candidates

        carrier = spp_fixed_point_candidates(net) + [net.algebra.trivial]
        metric = DistanceVectorUltrametric(net.algebra, carrier=carrier)
        # take states from the oscillation's own trajectory: along a
        # limit cycle D(X, σX) is periodic, so it cannot be strictly
        # decreasing (a strictly decreasing ℕ-chain must terminate) —
        # some trajectory state is a guaranteed counterexample.
        traj = RoutingSession(net, "incremental").sigma(
            max_rounds=12, keep_trajectory=True).trajectory
        orbit = check_strictly_contracting_on_orbits(metric, net, traj)
        conv = RoutingSession(net, "incremental").converges(
            n_starts=2, seed=5, max_steps=300).grid
        return report, orbit, conv

    report, orbit, conv = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("F1 / Figure 1 — non-increasing control (BAD GADGET)", [
        f"hypothesis (increasing): {check_mark(report.is_increasing)}",
        f"σ strictly contracting on orbits: {check_mark(orbit.holds)}",
        f"absolute convergence: {check_mark(conv.absolute)} "
        f"({conv.runs - len(conv.convergence_steps)} runs diverged)",
    ])
    assert not report.is_increasing
    assert not orbit.holds
    assert not conv.absolute
