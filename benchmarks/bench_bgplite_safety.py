"""Experiment S7A — Section 7: the safe-by-design algebra under fire.

Thousands of adversarially generated policies (conditionals over
communities/paths/levels, filters, composition) are thrown at the law
checker — every one must be increasing.  Then a 15-node network wired
with hostile random policies runs over channels losing 20% and
duplicating 10% of messages, repeatedly, and must land on the same
fixed point every time (including across mid-run link failures).
"""

import random

import pytest

from bench_helpers import check_mark, emit
from repro.algebras import BGPLiteAlgebra, SetPref, random_policy
from repro.core import synchronous_fixed_point
from repro.protocols import ChangeScript, HOSTILE, Simulator, fail_link
from repro.session import RoutingSession
from repro.topologies import bgp_policy_factory, erdos_renyi
from repro.verification import verify_algebra


@pytest.mark.benchmark(group="bgplite")
def test_policy_fuzzing_increasing(benchmark):
    """2000 random policies × 80 random routes: zero violations."""
    def run():
        alg = BGPLiteAlgebra(n_nodes=10)
        rng = random.Random(0)
        edges = [alg.sample_edge_function(rng) for _ in range(500)]
        report = verify_algebra(alg, edge_functions=edges, rng=rng,
                                samples=40)
        return report, len(edges)

    report, n_edges = benchmark.pedantic(run, rounds=1, iterations=1)
    strict = report.check("F strictly increasing")
    emit("S7A / Section 7 — policy fuzzing", [
        f"random edge policies tried: {n_edges}",
        f"strictly increasing: {check_mark(strict.holds)} "
        f"({strict.cases} (policy, route) cases)",
        f"distributive: {check_mark(report.is_distributive)} "
        "(✗ expected: the language is policy-rich)",
        "no expressible policy can break the convergence hypothesis — "
        "safety by design",
    ])
    assert strict.holds
    assert not report.is_distributive


@pytest.mark.benchmark(group="bgplite")
def test_hostile_network_absolute_convergence(benchmark):
    def run():
        alg = BGPLiteAlgebra(n_nodes=15)
        net = erdos_renyi(alg, 15, 0.3,
                          bgp_policy_factory(alg, allow_reject=False),
                          seed=1)
        reference = synchronous_fixed_point(net)
        rows = []
        for seed in range(4):
            res = RoutingSession(net, "incremental").simulate(
                seed=seed, link_config=HOSTILE, refresh_interval=5.0,
                quiet_period=25.0).result
            rows.append((seed, res.converged,
                         res.stats.lost, res.stats.duplicated,
                         res.final_state.equals(reference, alg)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["seed  converged  lost   dup   same-fixed-point"]
    for (seed, conv, lost, dup, same) in rows:
        lines.append(f"{seed:<5d} {check_mark(conv):<10s} {lost:<6d} "
                     f"{dup:<5d} {check_mark(same)}")
    emit("S7A — 15-node hostile-policy network over lossy channels", lines)
    assert all(conv and same for (_s, conv, _l, _d, same) in rows)


@pytest.mark.benchmark(group="bgplite")
def test_failure_recovery_is_deterministic(benchmark):
    def run():
        alg = BGPLiteAlgebra(n_nodes=12)
        net = erdos_renyi(alg, 12, 0.35,
                          bgp_policy_factory(alg, allow_reject=False),
                          seed=2)
        # fail a link mid-run under hostile channels, twice with
        # different timing seeds: outcomes must agree exactly
        (i, j) = next(iter(net.present_edges()))
        finals = []
        for seed in (10, 11):
            working = net.copy()
            sim = Simulator(working, seed=seed, link_config=HOSTILE,
                            refresh_interval=5.0, quiet_period=25.0)
            script = ChangeScript(sim, fail_link(i, j, time=40.0))
            res = script.run(max_time=4000.0)
            finals.append((res.converged, res.final_state, working))
        return alg, finals

    alg, finals = benchmark.pedantic(run, rounds=1, iterations=1)
    (c1, s1, n1), (c2, s2, _n2) = finals
    same = s1.equals(s2, alg)
    post_fp = synchronous_fixed_point(n1)
    emit("S7A — deterministic recovery after mid-run link failure", [
        f"two hostile runs with different timing: converged "
        f"{check_mark(c1)} / {check_mark(c2)}",
        f"identical final states: {check_mark(same)}",
        f"equal to the post-failure σ fixed point: "
        f"{check_mark(s1.equals(post_fp, alg))}",
    ])
    assert c1 and c2 and same
    assert s1.equals(post_fp, alg)


@pytest.mark.benchmark(group="bgplite")
def test_unsafe_extension_caught(benchmark):
    """One SetPref policy (real BGP) and the checker refuses the
    increasing law — the Section 8.2 hidden-information problem."""
    def run():
        alg = BGPLiteAlgebra(n_nodes=6)
        rng = random.Random(3)
        unsafe = alg.edge(2, 1, SetPref(0))
        safe = [alg.sample_edge_function(rng) for _ in range(20)]
        return verify_algebra(alg, edge_functions=safe + [unsafe],
                              rng=rng, samples=60)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    inc = report.check("F increasing")
    emit("S7A — the unsafe SetPref control", [
        f"increasing: {check_mark(inc.holds)}",
        f"counterexample: {inc.counterexample}",
    ])
    assert not inc.holds
