"""Experiment C2I — count-to-infinity vs the path-vector repair (Section 5).

Shortest-path DV is strictly increasing but infinite: from a stale
post-failure state its distances climb forever (we measure the climb
rate).  The same scenario under (a) RIP's bounded metric and (b) the
AddPaths lift converges, with the measured round counts matching the
certified bounds (counting-to-B rounds for RIP, ≤ n rounds for PV).
"""

import pytest

from bench_helpers import emit, fmt_row
from repro.algebras import HopCountAlgebra
from repro.core import Network, RoutingState
from repro.session import RoutingSession
from repro.topologies import count_to_infinity, count_to_infinity_pv


@pytest.mark.benchmark(group="c2i")
def test_plain_dv_counts_to_infinity(benchmark):
    def run():
        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").sigma(
            stale, max_rounds=60, keep_trajectory=True)
        climb = [s.get(1, 0) for s in res.trajectory]
        return res.converged, climb

    converged, climb = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("C2I — plain shortest-path DV from the stale state", [
        f"converged in 60 rounds: {converged}",
        f"node 1's distance to the dead destination, every 10 rounds: "
        f"{climb[::10]}",
        "distances climb ~1 per round, forever (S = ℕ∞ is infinite; "
        "Theorem 7 inapplicable)",
    ])
    assert not converged
    assert climb[-1] - climb[0] >= 50


@pytest.mark.benchmark(group="c2i")
@pytest.mark.parametrize("bound", [16, 64, 256])
def test_rip_counts_to_its_bound(benchmark, bound):
    """RIP's fix restores finiteness, but convergence-after-failure
    costs Θ(bound) rounds — why RIP's 16 is small and why its
    convergence is still slow."""
    def run():
        alg = HopCountAlgebra(bound)
        net = Network(alg, 3)
        net.set_edge(1, 2, alg.edge(1))
        net.set_edge(2, 1, alg.edge(1))
        stale = RoutingState([[0, alg.invalid, alg.invalid],
                              [1, 0, 1], [2, 1, 0]])
        res = RoutingSession(net, "incremental").sigma(
            stale, max_rounds=2 * bound)
        return res

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(f"C2I — RIP with bound {bound}", [
        f"converged: {res.converged} in {res.rounds} rounds "
        f"(≈ the bound: counting to {bound})",
        f"final route 1 → 0: {res.state.get(1, 0)} (= unreachable)",
    ])
    assert res.converged
    assert bound // 2 <= res.rounds <= bound + 2


@pytest.mark.benchmark(group="c2i")
def test_path_vector_flushes_immediately(benchmark):
    def run():
        net, stale = count_to_infinity_pv()
        return net, RoutingSession(net, "incremental").sigma(
            stale, max_rounds=20)

    net, res = benchmark.pedantic(run, rounds=1, iterations=1)
    alg = net.algebra
    emit("C2I — the path-vector repair (Theorem 11)", [
        f"converged: {res.converged} in {res.rounds} rounds "
        f"(certified ≤ n = {net.n})",
        f"final route 1 → 0: {res.state.get(1, 0)}",
        "loop rejection (P3) makes the stale routes inconsistent; the "
        "h_i chain flushes them in ≤ n rounds instead of Θ(bound)",
    ])
    assert res.converged
    assert res.rounds <= net.n
    assert alg.equal(res.state.get(1, 0), alg.invalid)


@pytest.mark.benchmark(group="c2i")
def test_crossover_summary(benchmark):
    """The shape the paper predicts: PV convergence time after failure
    is independent of the metric's range; RIP's grows linearly with it."""
    def run():
        rows = []
        for bound in (8, 32, 128):
            alg = HopCountAlgebra(bound)
            net = Network(alg, 3)
            net.set_edge(1, 2, alg.edge(1))
            net.set_edge(2, 1, alg.edge(1))
            stale = RoutingState([[0, alg.invalid, alg.invalid],
                                  [1, 0, 1], [2, 1, 0]])
            rip_rounds = RoutingSession(net, "incremental").sigma(
                stale, max_rounds=2 * bound).rounds
            pv_net, pv_stale = count_to_infinity_pv()
            pv_rounds = RoutingSession(pv_net, "incremental").sigma(
                pv_stale).rounds
            rows.append((bound, rip_rounds, pv_rounds))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (12, 12, 10)
    lines = [fmt_row(("metric range", "RIP rounds", "PV rounds"), widths)]
    lines += [fmt_row(r, widths) for r in rows]
    lines.append("RIP scales with the metric range; PV stays flat ≤ n")
    emit("C2I — crossover: bounded-metric vs path-vector repair", lines)
    rip_rounds = [r[1] for r in rows]
    pv_rounds = [r[2] for r in rows]
    assert rip_rounds == sorted(rip_rounds) and rip_rounds[-1] > rip_rounds[0]
    assert len(set(pv_rounds)) == 1
