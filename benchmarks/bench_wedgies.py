"""Experiment W — BGP wedgies eliminated (Section 1's headline claim).

"First, we show that the conditions are sufficient to guarantee that
the protocols will converge to a unique solution from any state.  This
eliminates the possibility of BGP wedgies."

Regenerated here as a stable-state census:

* DISAGREE           → 2 stable states (the wedgie), both reachable;
* BAD GADGET         → 0 stable states (oscillation);
* GOOD GADGET        → 1 (conditions sufficient, not necessary);
* increasing repair  → 1, reached from everywhere;
* RFC 4264 backup scenario in safe BGPLite → 1, policy intent honoured.
"""

import pytest

from bench_helpers import check_mark, emit, fmt_row
from repro.algebras import (
    bad_gadget,
    disagree,
    good_gadget,
    increasing_disagree,
    spp_fixed_point_candidates,
)
from repro.analysis import (
    enumerate_fixed_points,
    multistart_fixed_points,
    sync_oscillates,
)
from repro.core import synchronous_fixed_point
from repro.session import RoutingSession
from repro.topologies import BACKUP_COMMUNITY, wedgie_bgplite

GADGETS = [
    ("DISAGREE", disagree, 2),
    ("BAD GADGET", bad_gadget, 0),
    ("GOOD GADGET", good_gadget, 1),
    ("DISAGREE (increasing)", increasing_disagree, 1),
]


@pytest.mark.benchmark(group="wedgies")
def test_wedgie_census(benchmark):
    def run():
        rows = []
        for (name, build, expected) in GADGETS:
            net = build()
            census = enumerate_fixed_points(
                net, candidates={0: spp_fixed_point_candidates(net)},
                dests=[0])
            report = multistart_fixed_points(net, n_starts=8, seed=3,
                                             max_steps=600)
            rows.append((name, expected, census.per_destination[0],
                         len(report.fixed_points), report.diverged,
                         sync_oscillates(net)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (22, 9, 9, 11, 9, 11)
    lines = [fmt_row(("gadget", "expected", "stable", "reachable",
                      "diverged", "oscillates"), widths)]
    for (name, exp, stable, reach, div, osc) in rows:
        lines.append(fmt_row((name, exp, stable, reach, div,
                              check_mark(osc)), widths))
    emit("W — stable-state census (wedgies & oscillation)", lines)

    for (name, exp, stable, reach, _div, _osc) in rows:
        assert stable == exp, name
        assert reach <= max(stable, 1)
    # DISAGREE really wedges: both states reachable
    assert rows[0][3] == 2
    # the increasing repair reaches its unique state in every run
    assert rows[3][3] == 1 and rows[3][4] == 0
    # BAD GADGET oscillates
    assert rows[1][5]


@pytest.mark.benchmark(group="wedgies")
def test_rfc4264_backup_scenario_is_wedgie_free(benchmark):
    """The operational wedgie story, in the safe policy language:
    primary wins, backup takes over on failure, and restoration returns
    the network to the original state (no hysteresis)."""

    def run():
        net, alg = wedgie_bgplite()
        before = synchronous_fixed_point(net)
        primary_route = before.get(1, 0)
        saved = (net.edge(2, 0), net.edge(0, 2))
        net.remove_edge(2, 0)
        net.remove_edge(0, 2)
        during = RoutingSession(net, "incremental").sigma(before).state
        backup_route = during.get(2, 0)
        net.set_edge(2, 0, saved[0])
        net.set_edge(0, 2, saved[1])
        after = RoutingSession(net, "incremental").sigma(during).state
        report = multistart_fixed_points(net, n_starts=6, seed=5,
                                         max_steps=800)
        return alg, primary_route, backup_route, \
            after.equals(before, alg), len(report.fixed_points)

    alg, primary, backup, restored, n_fp = benchmark.pedantic(
        run, rounds=1, iterations=1)
    emit("W — RFC 4264 backup links in safe BGPLite", [
        f"steady state, node 1 → 0: {primary}",
        f"  (backup community present: "
        f"{BACKUP_COMMUNITY in primary.communities})",
        f"primary failed, node 2 → 0: {backup}",
        f"  (backup community present: "
        f"{BACKUP_COMMUNITY in backup.communities})",
        f"primary restored → original state recovered: "
        f"{check_mark(restored)}  (a wedgie would stay on the backup)",
        f"reachable stable states: {n_fp}",
    ])
    assert BACKUP_COMMUNITY not in primary.communities
    assert BACKUP_COMMUNITY in backup.communities
    assert restored
    assert n_fp == 1
