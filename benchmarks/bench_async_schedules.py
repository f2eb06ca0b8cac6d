"""Experiment AS — Section 3: robustness across message pathologies.

The δ model allows delay, loss, reordering and duplication.  This bench
sweeps each pathology's intensity on the event-driven simulator and
shows (a) the invariant — the same fixed point is reached every time —
and (b) the cost curve — convergence time and message count grow with
hostility, which is the price of the weak model, not of correctness.
"""

import pytest

from bench_helpers import check_mark, emit, fmt_row
from repro.core import synchronous_fixed_point
from repro.protocols import LinkConfig
from repro.session import RoutingSession
from tests.conftest import bgp_net, hop_net


@pytest.mark.benchmark(group="async")
def test_loss_sweep(benchmark):
    def run():
        net = hop_net(6)
        alg = net.algebra
        reference = synchronous_fixed_point(net)
        rows = []
        for loss in (0.0, 0.1, 0.2, 0.3, 0.4):
            cfg = LinkConfig(min_delay=0.2, max_delay=2.0, loss=loss)
            res = RoutingSession(net, "incremental").simulate(
                seed=int(loss * 100), link_config=cfg, refresh_interval=4.0,
                quiet_period=20.0).result
            rows.append((loss, res.converged,
                         res.final_state.equals(reference, alg),
                         res.convergence_time, res.stats.sent))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (7, 10, 9, 11, 8)
    lines = [fmt_row(("loss", "converged", "same-fp", "conv-time",
                      "msgs"), widths)]
    for (loss, conv, same, t, sent) in rows:
        lines.append(fmt_row((f"{loss:.0%}", check_mark(conv),
                              check_mark(same), f"{t:.1f}", sent), widths))
    emit("AS / §3 — loss-rate sweep (hop count, ring)", lines)
    assert all(conv and same for (_l, conv, same, _t, _s) in rows)
    # losing messages costs time: the hostile end is slower than clean
    assert rows[-1][3] >= rows[0][3]


@pytest.mark.benchmark(group="async")
def test_duplication_sweep(benchmark):
    def run():
        net = bgp_net(5, seed=6)
        alg = net.algebra
        reference = synchronous_fixed_point(net)
        rows = []
        for dup in (0.0, 0.2, 0.5, 1.0):
            cfg = LinkConfig(min_delay=0.2, max_delay=2.0, duplicate=dup)
            res = RoutingSession(net, "incremental").simulate(
                seed=int(dup * 10) + 3, link_config=cfg, refresh_interval=5.0,
                quiet_period=20.0).result
            rows.append((dup, res.converged,
                         res.final_state.equals(reference, alg),
                         res.stats.duplicated))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (7, 10, 9, 12)
    lines = [fmt_row(("dup", "converged", "same-fp", "extra msgs"),
                     widths)]
    for (dup, conv, same, extra) in rows:
        lines.append(fmt_row((f"{dup:.0%}", check_mark(conv),
                              check_mark(same), extra), widths))
    emit("AS / §3 — duplication sweep (BGPLite, ring)", lines)
    assert all(conv and same for (_d, conv, same, _e) in rows)


@pytest.mark.benchmark(group="async")
def test_reordering_sweep(benchmark):
    """Widen the delay jitter window (the reordering knob) and compare
    FIFO against free-for-all delivery: classical proofs assume FIFO,
    Theorem 7 does not need it — outcomes match exactly."""
    def run():
        net = hop_net(6)
        alg = net.algebra
        reference = synchronous_fixed_point(net)
        rows = []
        for window in (1.0, 4.0, 10.0):
            for fifo in (True, False):
                cfg = LinkConfig(min_delay=0.1, max_delay=window,
                                 fifo=fifo)
                res = RoutingSession(net, "incremental").simulate(
                    seed=int(window) * 2 + fifo, link_config=cfg,
                    refresh_interval=5.0, quiet_period=20.0).result
                rows.append((window, fifo, res.converged,
                             res.final_state.equals(reference, alg)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    widths = (14, 6, 10, 9)
    lines = [fmt_row(("jitter window", "fifo", "converged", "same-fp"),
                     widths)]
    for (w, fifo, conv, same) in rows:
        lines.append(fmt_row((w, check_mark(fifo), check_mark(conv),
                              check_mark(same)), widths))
    emit("AS / §3 — reordering sweep: FIFO vs unordered delivery", lines)
    assert all(conv and same for (_w, _f, conv, same) in rows)


@pytest.mark.benchmark(group="async")
def test_abstract_schedule_zoo(benchmark):
    """The same invariant at the δ level across qualitatively different
    admissible schedules, including the adversarially stale one."""
    from repro.core import RoutingState, schedule_zoo

    def run():
        net = hop_net(5)
        alg = net.algebra
        reference = synchronous_fixed_point(net)
        rows = []
        for sched in schedule_zoo(5, seeds=(0, 1)):
            res = RoutingSession(net, "incremental").delta(
                sched, RoutingState.filled(7, 5), max_steps=3000)
            rows.append((repr(sched), res.converged,
                         res.state.equals(reference, alg),
                         res.converged_at))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [f"{check_mark(conv)} {check_mark(same)} "
             f"steps={at!s:<6} {name}"
             for (name, conv, same, at) in rows]
    emit("AS / §3 — abstract schedule zoo (δ level)", lines)
    assert all(conv and same for (_n, conv, same, _a) in rows)
