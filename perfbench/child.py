"""One workload in a fresh process.

Sets the workload up (including one warm-up op), prints ``{"ready":
true}``, runs the timed closed loop, stops the program's processes,
checks every recorded output, and prints one JSON result line. With
``--setup-only`` it stops after the ready line. ``run.py`` launches
this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from time import perf_counter_ns, process_time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: peak RSS is read after this many timed ops, so that both sides of a
#: comparison have done the same work (memory grows with op count on
#: grid-absolute: see README.md)
RSS_OPS = 10
#: the loop runs at least this many ops, even past ``--seconds``
MIN_OPS = 10


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _host_speed(pids):
    """Ask ``run.py`` to time its calibration loop now; returns ms, or
    ``None`` when one of the program's processes ``pids`` ran
    meanwhile."""
    _emit({"cal": True, "pids": pids})
    return json.loads(sys.stdin.readline())["loop_ms"]


def _import_program():
    import repro
    where = os.path.realpath(os.path.dirname(repro.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"repro imported from {where}, not from {SRC}")


def timed_phase(wl, seconds):
    me = os.getpid()
    ext = wl.program_pids()
    mem_pids = ([me] if wl.in_process else []) + ext
    wl.begin_phase()
    ext_cpu0 = sum(measure.cpu_ms(p) for p in ext)
    faults0 = sum(measure.minor_faults(p) for p in mem_pids)
    proc0 = process_time()
    t_start = perf_counter_ns()
    deadline = t_start + int(seconds * 1e9)
    lat, windows, cal = [], [], []
    in_calls_ms = 0.0
    ops = failed = 0
    rss = None
    while perf_counter_ns() < deadline or ops < MIN_OPS:
        inp = wl.next_input()
        host_ms = _host_speed(mem_pids)
        c0 = process_time()
        t0 = perf_counter_ns()
        try:
            ok = wl.op(inp)
        except Exception:                # recorded, then the loop stops
            traceback.print_exc()
            ok = None
        t1 = perf_counter_ns()
        in_calls_ms += (process_time() - c0) * 1e3
        ops += 1
        if not ok:
            failed += 1
            if ok is None:
                break
        lat.append((t1 - t0) / 1e6)
        cal.append(host_ms)
        windows.append((t0, t1))
        if ops == RSS_OPS:
            rss = sum(measure.peak_rss_mb(p) for p in mem_pids)
    t_end = perf_counter_ns()
    own_ms = (process_time() - proc0) * 1e3
    ext_ms = sum(measure.cpu_ms(p) for p in ext) - ext_cpu0
    faults = sum(measure.minor_faults(p) for p in mem_pids) - faults0
    if rss is None:
        rss = sum(measure.peak_rss_mb(p) for p in mem_pids)
    program_ms = ext_ms + (in_calls_ms if wl.in_process else 0.0)
    return {
        "ops": ops, "failed": failed, "writes": wl.writes,
        "wall_s": (t_end - t_start) / 1e9,
        "cal_ms": cal,                   # per op; None: dropped
        "lat_ms": lat,
        "cpu_ms_per_op": program_ms / ops,
        "peak_rss_mb": rss,
        "minor_faults": faults / ops,
        "loadgen_cpu_ms": (own_ms - (in_calls_ms if wl.in_process else 0.0))
        / ops,
        "ext_cpu_ms": ext_ms / ops,
        "kinds": wl.request_latencies(),
        "counts": {k: v / ops for k, v in wl.phase_counts().items()},
    }, (t_start, t_end, windows)


def layer_metrics(spans, phase, ops, writes, req_windows, daemon):
    """Per-op layer metrics from the spans recorded in the timed phase."""
    import tracing
    t_start, t_end, windows = phase
    spans = tracing.in_window(spans, t_start, t_end)
    tot = tracing.layer_totals(spans)

    def ms(*names):
        return sum(tot.get(n + ":ns", 0) for n in names) / 1e6 / ops

    def per(name, base=ops):
        return tot.get(name, 0) / base if base else 0.0

    op_ns = sum(b - a for a, b in windows)
    out = {
        "protocol.digest_ms": ms("protocol.digest"),
        "protocol.digest_calls": per("protocol.digest"),
        "protocol.encode_ms": ms("protocol.encode"),
        "protocol.reply_bytes": per("protocol.reply_bytes"),
        "persistence.journal_ms": ms("persistence.append",
                                     "persistence.flush",
                                     "persistence.fsync"),
        "persistence.fsyncs": per("persistence.fsync", writes),
        "state.mutate_ms": ms("state.mutate"),
        "vectorized.refresh_ms": ms("vectorized.refresh"),
        "vectorized.kernel_ms": ms("vectorized.sigma"),
        "vectorized.codec_ms": ms("vectorized.codec"),
        "vectorized.rounds": per("vectorized.rounds"),
        "vectorized.grid_ms": ms("vectorized.grid"),
        "vectorized.grid_steps": per("vectorized.grid_steps"),
        "schedule.beta_ms": ms("schedule.beta_row"),
        "schedule.beta_calls": per("schedule.beta"),
        "schedule.row_calls": per("schedule.beta_row"),
        "incremental.sigma_ms": ms("incremental.sigma"),
        "algebras.choice_calls": per("algebras.choice"),
        "algebras.extend_calls": per("algebras.extend"),
        "scenarios.build_ms": ms("scenarios.build"),
        "scenarios.compile_ms": ms("scenarios.compile"),
        "remote.self_ms": ms("remote.delta"),
        "wire.send_ms": ms("wire.send"),
        "wire.recv_wait_ms": ms("wire.recv"),
        "wire.codec_ms": ms("wire.codec"),
        "wire.bytes_sent": per("wire.bytes_sent"),
        "wire.bytes_received": per("wire.bytes_received"),
        "wire.commands": per("wire.send"),
        "session.self_ms": ms("session.sigma", "session.delta",
                              "session.delta_grid", "session.replay"),
        "capabilities.resolve_ms": ms("capabilities.resolve"),
        "process.gc_ms": ms("process.gc"),
        "daemon.solves_per_write": per("session.sigma", writes)
        if daemon else 0.0,
        "daemon.other_ms": (sum(b - a for a, b in req_windows)
                            - tracing.covered_ns(spans, req_windows))
        / 1e6 / ops if daemon else 0.0,
        "trace.unattributed": 1.0 - tracing.covered_ns(spans, windows)
        / op_ns,
    }
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--cpus", required=True,
                   help="comma-separated CPUs this process may run on")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args(argv)

    os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    _import_program()
    import tracing
    import workloads
    wl = workloads.make(args.workload, args.seed, args.tiny, args.workdir,
                        args.traced)
    try:
        wl.setup()
        _emit({"ready": True})
        if args.setup_only:
            return 0
        rec = None
        if args.traced and wl.in_process:
            rec = tracing.Recorder()
            wl.install_tracing(rec)
        result, phase = timed_phase(wl, args.seconds)
    finally:
        wl.close()
    if args.traced:
        spans = rec.spans if rec is not None else wl.daemon_spans()
        result["layers"] = layer_metrics(
            spans, phase, result["ops"], result["writes"],
            wl.request_windows(), daemon=not wl.in_process)
    result["mismatches"] = wl.check(args.corrupt)
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
