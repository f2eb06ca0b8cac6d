"""Experiment TH7 — Theorem 7: distance-vector absolute convergence.

Finite + strictly increasing ⇒ δ converges from *every* state under
*every* admissible schedule to *one* fixed point.  The experiment grid:

* algebras: RIP hop-count (with conditional route maps!), random finite
  chains, quantised reliability;
* topologies: ring, star, random;
* 20 starting states × the full schedule zoo per cell.

Controls drop finiteness (count-to-infinity) and strictness (plateau
ghost routes) and watch the conclusion fail.

Paper artefact: Theorem 7 + Section 4.2 practical implications.
"""

import random

import pytest

from bench_helpers import check_mark, emit, fmt_row
from repro.algebras import (
    ConditionalHopEdge,
    FiniteLevelAlgebra,
    HopCountAlgebra,
    QuantisedReliabilityAlgebra,
)
from repro.core import Network
from repro.session import RoutingSession
from repro.topologies import erdos_renyi, ring, star, uniform_weight_factory


def policy_rich_hop_ring(n, seed):
    alg = HopCountAlgebra(16)
    rng = random.Random(seed)
    net = Network(alg, n, name=f"rip-routemaps-{n}")
    for i in range(n):
        for j in ((i + 1) % n, (i - 1) % n):
            net.set_edge(i, j, ConditionalHopEdge.random(rng, 16))
    return net


def finite_random(n, seed):
    alg = FiniteLevelAlgebra(8)
    rng = random.Random(seed)
    net = erdos_renyi(alg, n, 0.5,
                      lambda r, _i, _j: alg.random_strict_edge(r), seed=seed)
    return net


def quantised_star(n, seed):
    alg = QuantisedReliabilityAlgebra(quantum=8)
    return star(alg, n, lambda r, _i, _j: alg.sample_edge_function(r),
                seed=seed)


GRID = [
    ("RIP + route maps / ring", policy_rich_hop_ring, 5),
    ("finite chain / random", finite_random, 6),
    ("quantised reliability / star", quantised_star, 5),
]


@pytest.mark.benchmark(group="theorem7")
@pytest.mark.parametrize("name,build,n", GRID,
                         ids=[g[0].split(" /")[0].replace(" ", "-")
                              for g in GRID])
def test_theorem7_absolute_convergence(benchmark, name, build, n):
    def run():
        net = build(n, seed=21)
        return RoutingSession(net, "incremental").converges(
            n_starts=20, seed=22, max_steps=3000).grid

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("TH7 / Theorem 7 — " + name, [
        f"runs (states × schedules): {report.runs}",
        f"all converged: {check_mark(report.all_converged)}",
        f"distinct fixed points: {len(report.distinct_fixed_points)}",
        f"steps to converge: mean {report.mean_steps:.1f}, "
        f"worst {report.max_steps}",
        f"ABSOLUTE CONVERGENCE: {check_mark(report.absolute)}",
    ])
    assert report.absolute


@pytest.mark.benchmark(group="theorem7")
def test_theorem7_control_drop_finiteness(benchmark):
    """Strictly increasing, infinite carrier: count-to-infinity."""
    from repro.core import SynchronousSchedule
    from repro.topologies import count_to_infinity

    def run():
        net, stale = count_to_infinity()
        return RoutingSession(net, "incremental").delta(
            SynchronousSchedule(net.n), stale, max_steps=300)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("TH7 control — drop finiteness (shortest paths, stale state)", [
        f"converged within 300 steps: {check_mark(res.converged)}",
        f"node 1's distance to dead destination: {res.state.get(1, 0)} "
        "and climbing",
    ])
    assert not res.converged


@pytest.mark.benchmark(group="theorem7")
def test_theorem7_control_drop_strictness(benchmark):
    """Increasing-but-not-strict plateau: ghost routes persist, and the
    reached fixed point depends on the starting state."""
    from repro.core import RoutingState, SynchronousSchedule

    def run():
        alg = FiniteLevelAlgebra(4)
        net = Network(alg, 3, name="plateau")
        plateau = alg.table_edge([2, 3, 2, 3, 4])
        net.set_edge(0, 1, plateau)
        net.set_edge(1, 0, plateau)
        outcomes = []
        for v in (2, 3):
            start = RoutingState([[0, 2, v], [2, 0, v], [4, 4, 0]])
            res = RoutingSession(net, "incremental").delta(
                SynchronousSchedule(3), start, max_steps=300)
            outcomes.append((v, res.converged, res.state.get(0, 2)))
        return alg, outcomes

    alg, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [fmt_row(("start ghost value", "converged", "final (0→2)"),
                     (18, 10, 12))]
    for (v, conv, final) in outcomes:
        lines.append(fmt_row((v, check_mark(conv), final), (18, 10, 12)))
    lines.append("different starts → different fixed points "
                 "(absolute convergence fails)")
    emit("TH7 control — drop strictness (plateau tables)", lines)
    finals = {final for (_v, _c, final) in outcomes}
    assert len(finals) == 2
