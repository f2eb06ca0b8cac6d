"""Experiment T2 — Table 2's four simple algebras solving path problems.

Each row of Table 2 is run on random connected graphs: the algebra's
laws are checked, the synchronous iteration is driven to a fixed point,
and the fixed point is validated against an independent computation
(networkx shortest/widest paths) — the algebra really "solves" its
path problem, as the table claims.

Paper artefact: Table 2 (a few very simple routing algebras).
"""

import math
import random

import networkx as nx
import pytest

from bench_helpers import emit, fmt_row
from repro.algebras import (
    MostReliableAlgebra,
    ShortestPathsAlgebra,
    WidestPathsAlgebra,
)
from repro.session import RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory


def networkx_graph(net, weight_of):
    g = nx.DiGraph()
    g.add_nodes_from(range(net.n))
    for (i, j) in net.present_edges():
        g.add_edge(j, i, w=weight_of(net.edge(i, j)))   # j -> i direction
    return g


def run_shortest(n, seed):
    alg = ShortestPathsAlgebra()
    net = erdos_renyi(alg, n, 0.4, uniform_weight_factory(alg, 1, 9),
                      seed=seed)
    res = RoutingSession(net, "incremental").sigma()
    assert res.converged
    g = networkx_graph(net, lambda e: e.weight)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            expected = nx.shortest_path_length(g, j, i, weight="w")
            assert res.state.get(i, j) == expected, (i, j)
    return res.rounds


def run_widest(n, seed):
    alg = WidestPathsAlgebra()
    net = erdos_renyi(alg, n, 0.4, uniform_weight_factory(alg, 1, 9),
                      seed=seed)
    res = RoutingSession(net, "incremental").sigma()
    assert res.converged
    # independent max-min via brute-force over networkx simple paths
    g = networkx_graph(net, lambda e: e.capacity)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = max(
                (min(g[u][v]["w"] for u, v in zip(p, p[1:]))
                 for p in nx.all_simple_paths(g, j, i)),
                default=0)
            assert res.state.get(i, j) == best, (i, j)
    return res.rounds


def run_most_reliable(n, seed):
    alg = MostReliableAlgebra(sample_grid=10)
    rng = random.Random(seed)
    net = erdos_renyi(alg, n, 0.4,
                      lambda r, _i, _j: alg.edge(r.randint(5, 9) / 10),
                      seed=seed)
    res = RoutingSession(net, "incremental").sigma()
    assert res.converged
    g = networkx_graph(net, lambda e: e.reliability)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            best = max(
                (math.prod(g[u][v]["w"] for u, v in zip(p, p[1:]))
                 for p in nx.all_simple_paths(g, j, i)),
                default=0.0)
            assert abs(res.state.get(i, j) - best) < 1e-9, (i, j)
    return res.rounds


@pytest.mark.benchmark(group="table2")
@pytest.mark.parametrize("name,runner,sizes", [
    ("shortest paths (ℕ∞, min, F+)", run_shortest, (6, 10, 14)),
    ("widest paths (ℕ∞, max, Fmin)", run_widest, (6, 8)),
    ("most reliable ([0,1], max, F×)", run_most_reliable, (6, 8)),
], ids=["shortest", "widest", "most-reliable"])
def test_table2_row(benchmark, name, runner, sizes):
    def run_all():
        return {n: runner(n, seed=n) for n in sizes}

    rounds = benchmark.pedantic(run_all, rounds=1, iterations=1)
    widths = (34, 6, 8)
    lines = [fmt_row(("algebra", "n", "rounds"), widths)]
    for n, r in rounds.items():
        lines.append(fmt_row((name, n, r), widths))
    lines.append("fixed points validated against independent "
                 "networkx computations ✓")
    emit("T2 / Table 2 — simple algebras solve their path problems", lines)


@pytest.mark.benchmark(group="table2")
def test_table2_longest_paths_is_the_broken_row(benchmark):
    """Longest paths satisfies the required laws but is non-increasing;
    its 'answer' on any cyclic topology is the useless all-∞̄... all-0̄
    state — Table 2 lists it as a structure, not as a working protocol."""
    from repro.algebras import LongestPathsAlgebra
    from repro.core import Network

    def run():
        alg = LongestPathsAlgebra()
        net = Network(alg, 3)
        for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            net.set_edge(i, j, alg.edge(2))
        res = RoutingSession(net, "incremental").sigma()
        return alg, res

    alg, res = benchmark.pedantic(run, rounds=1, iterations=1)
    assert res.converged
    off_diag = [r for (i, j, r) in res.state.entries() if i != j]
    emit("T2 / Table 2 — longest paths (the non-increasing row)",
         [f"converged: {res.converged}; "
          f"all off-diagonal entries = {off_diag[0]} (numeric ∞ = the "
          "trivial route leaked everywhere: structurally legal, useless)"])
    assert all(r == alg.trivial for r in off_diag)
