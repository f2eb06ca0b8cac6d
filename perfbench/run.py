"""The repository's benchmark: four closed-loop workloads, each in fresh
processes, with every output checked.

    python3 perfbench/run.py --workload svc-churn --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one table

With ``--trace 0`` a run sets the workload up ``SETUPS`` times (each in
fresh processes: interpreter, imports, network build, daemon or worker
spawn, one warm-up op), runs the timed loop in the last one, checks the
outputs and reports the end-to-end metrics. With ``--trace 1`` it runs
the timed loop twice, untraced and then traced, and reports the
per-layer metrics. The last line of stdout is one JSON object; the exit
code is 0 only when every output matched.

Workloads, parameters, metrics and the layer map: ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
from time import perf_counter, thread_time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("svc-churn", "grid-absolute", "pv-replay", "remote-shard")
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5
#: one workload's processes must all have ended by then
DEADLINE_S = 170

#: Everything but remote-shard runs on one CPU, the one this process
#: calibrates on. On 2 vCPUs the daemon's threads and the generator
#: woke each other across CPUs, and that wake-up latency swung with
#: the host's load (update cycles of 110-118 ms unpinned against
#: 84-88 ms pinned, measured back to back). remote-shard keeps every
#: CPU: its point is two workers beside the coordinator.
CPUS = sorted(os.sched_getaffinity(0))
PINNED_CPU = CPUS[-1]
UNPINNED = ("remote-shard",)

#: Host-speed calibration: a fixed pure-Python loop timed by this
#: process (which runs no program code) before every op, on the
#: workload's CPU, while the workload waits. Timed metrics are scaled
#: by ``CAL_REF_MS / median(loop ms)``: the host's speed drifted by up
#: to 30% between runs minutes apart, and the loop tracks that drift.
CAL_LOOPS = 30_000
CAL_REF_MS = 2.5
#: how long a calibration waits for the program's processes to go idle
SETTLE_S = 0.05
#: during a set-up, the host's speed is sampled this often
SAMPLE_S = 0.025
#: p90s are reported only from at least this many samples
P90_MIN_SAMPLES = 100


def calibrate():
    """Milliseconds for the fixed calibration loop, now."""
    t0 = perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i % 7
    return (perf_counter() - t0) * 1e3


def speed_sample():
    """The calibration loop's ms, from a tenth of it timed in this
    thread's CPU time, so that the set-up's processes, which share the
    CPU, cannot lengthen it."""
    t0 = thread_time()
    x = 0
    for i in range(CAL_LOOPS // 10):
        x += i * i % 7
    return (thread_time() - t0) * 1e4


def calibrate_beside(pids):
    """:func:`calibrate` once the program's processes ``pids`` are idle
    (waiting at most ``SETTLE_S``), or ``None`` when a thread of theirs
    ran during the loop anyway: work the program does after a reply
    would slow the loop and be scored as a gain. (Run time is exact for
    threads that share the loop's CPU; on another CPU it advances at
    scheduler ticks.)"""
    settled = perf_counter() + SETTLE_S
    while measure.busy(pids) and perf_counter() < settled:
        os.sched_yield()
    before = measure.thread_run_ns(pids)
    loop_ms = calibrate()
    ran = measure.ran_ns(before, measure.thread_run_ns(pids))
    return loop_ms if ran == 0 else None


END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("fresh_p50_ms", "ms"), ("fresh_p90_ms", "ms"),
    ("read_p50_ms", "ms"), ("read_p90_ms", "ms"), ("write_p50_ms", "ms"),
    ("daemon.other_ms", "ms"), ("daemon.solves_per_write", "ratio"),
    ("protocol.digest_ms", "ms"), ("protocol.digest_calls", "count"),
    ("protocol.encode_ms", "ms"), ("protocol.reply_bytes", "bytes"),
    ("persistence.journal_ms", "ms"), ("persistence.fsyncs", "count"),
    ("state.mutate_ms", "ms"),
    ("vectorized.refresh_ms", "ms"), ("vectorized.kernel_ms", "ms"),
    ("vectorized.codec_ms", "ms"), ("vectorized.rounds", "count"),
    ("vectorized.grid_ms", "ms"), ("vectorized.grid_steps", "count"),
    ("schedule.beta_ms", "ms"), ("schedule.beta_calls", "count"),
    ("schedule.row_calls", "count"),
    ("incremental.sigma_ms", "ms"),
    ("algebras.choice_calls", "count"), ("algebras.extend_calls", "count"),
    ("scenarios.build_ms", "ms"), ("scenarios.compile_ms", "ms"),
    ("scenarios.rounds", "count"), ("scenarios.churn", "count"),
    ("remote.self_ms", "ms"), ("remote.worker_cpu_ms", "ms"),
    ("remote.heals", "count"),
    ("wire.send_ms", "ms"), ("wire.recv_wait_ms", "ms"),
    ("wire.codec_ms", "ms"), ("wire.bytes_sent", "bytes"),
    ("wire.bytes_received", "bytes"), ("wire.commands", "count"),
    ("session.self_ms", "ms"), ("capabilities.resolve_ms", "ms"),
    ("process.minor_faults", "count"), ("process.gc_ms", "ms"),
    ("loadgen.cpu_ms", "ms"),
    ("trace.overhead", "ratio"), ("trace.unattributed", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark could not run (not an output mismatch)."""


def run_child(workload, seed, seconds, deadline, *, tiny=False,
              traced=False, setup_only=False, corrupt=False):
    """Launch one fresh workload process; returns ``(setup_s,
    setup_speed_ms, result)`` (``result`` is ``None`` for a set-up-only
    child). ``setup_speed_ms`` is the mean of the :func:`speed_sample`
    results taken every ``SAMPLE_S`` during the set-up: the host's speed
    changed within seconds, too fast for a calibration before or after
    a set-up to track it.

    The child's stdout carries JSON lines: ``ready`` (end of set-up),
    ``cal`` (a calibration request with the program's pids, answered on
    its stdin) and finally the result.
    """
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    cpus = CPUS if workload in UNPINNED else [PINNED_CPU]
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", workdir,
           "--cpus", ",".join(map(str, cpus))]
    cmd += ["--traced"] * traced + ["--tiny"] * tiny
    cmd += ["--setup-only"] * setup_only + ["--corrupt"] * corrupt
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    speeds, ready = [], threading.Event()

    def sample_speed():
        while True:
            speeds.append(speed_sample())
            if ready.wait(SAMPLE_S):
                return

    sampler = threading.Thread(target=sample_speed)
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stdin=subprocess.PIPE, env=env, cwd=ROOT)
    sampler.start()
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()),
                               proc.kill)
    watchdog.start()
    try:
        lines = []
        setup_s = None
        for raw in proc.stdout:
            try:
                msg = json.loads(raw)
            except ValueError:
                sys.stderr.write(raw.decode("utf-8", "replace"))
                continue
            if msg.get("cal"):
                reply = {"loop_ms": calibrate_beside(msg["pids"])}
                proc.stdin.write(json.dumps(reply).encode() + b"\n")
                proc.stdin.flush()
            elif msg.get("ready") and setup_s is None:
                setup_s = perf_counter() - t0
                ready.set()
            else:
                lines.append(msg)
        code = proc.wait()
    finally:
        ready.set()
        sampler.join()
        watchdog.cancel()
        proc.stdout.close()
        proc.stdin.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None or (not setup_only and not lines):
        raise BenchError(f"{workload} child exited with code {code}")
    speed = sum(speeds) / len(speeds)
    if setup_only:
        return setup_s, speed, None
    res = lines[-1]
    if not res["lat_ms"]:
        raise BenchError(f"{workload}: no op completed")
    if len(_clean(res)) * 2 < len(res["cal_ms"]):
        raise BenchError(
            f"{workload}: the program ran during {_dropped(res)} of "
            f"{len(res['cal_ms'])} calibration loops; host-scaled figures "
            "would depend on it")
    return setup_s, speed, res


def _p90(values):
    """p90 only from at least ``P90_MIN_SAMPLES`` samples, else None."""
    return measure.p90(values) if len(values) >= P90_MIN_SAMPLES else None


def _clean(res):
    """The timed phase's calibration samples that were not dropped."""
    return [ms for ms in res["cal_ms"] if ms is not None]


def _dropped(res):
    return len(res["cal_ms"]) - len(_clean(res))


def host_scale(res):
    """``CAL_REF_MS / median(calibration ms)`` of one timed phase."""
    return CAL_REF_MS / measure.median(_clean(res))


def throughput(res):
    """Ops per second of the timed phase, the calibration loops that
    ran while the program was idle excluded."""
    return res["ops"] / (res["wall_s"] - sum(_clean(res)) / 1e3)


def end_to_end(setups, res):
    """``setups``: ``(setup_s, setup_speed_ms)`` per set-up."""
    k = host_scale(res)
    return {
        "setup_s": measure.median(
            [s * CAL_REF_MS / speed for s, speed in setups]),
        "ops_per_s": throughput(res) / k,
        "op_p50_ms": measure.median(res["lat_ms"]) * k,
        "cpu_ms_per_op": res["cpu_ms_per_op"] * k,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def reported_extras(res):
    """Figures printed beside the gated ones: the unscaled timings, and
    end-to-end metrics that exist on one workload only, need 100
    samples, or read 0 on a healthy run."""
    kinds = res.get("kinds") or {}
    out = {"raw ops_per_s": throughput(res),
           "raw op_p50_ms": measure.median(res["lat_ms"]),
           "raw cpu_ms_per_op": res["cpu_ms_per_op"],
           "host calibration_ms": measure.median(_clean(res)),
           "host calibration_dropped": _dropped(res),
           "op_p90_ms": _p90(res["lat_ms"]),
           "error_ratio": res["failed"] / res["ops"]}
    if kinds:
        out.update({
            "fresh_p50_ms": measure.median(kinds["fresh"]),
            "fresh_p90_ms": _p90(kinds["fresh"]),
            "read_p50_ms": measure.median(kinds["read"]),
            "read_p90_ms": _p90(kinds["read"]),
            "write_p50_ms": measure.median(kinds["write"]),
        })
    return out


def run_untraced(workload, seed, seconds, deadline, tiny=False,
                 corrupt=False, setups=SETUPS):
    samples = []
    for _ in range(setups - 1):
        setup_s, speed, _none = run_child(workload, seed, seconds, deadline,
                                          tiny=tiny, setup_only=True)
        samples.append((setup_s, speed))
    setup_s, speed, res = run_child(workload, seed, seconds, deadline,
                                    tiny=tiny, corrupt=corrupt)
    samples.append((setup_s, speed))
    extras = {"raw setup_s": measure.median([s for s, _ in samples])}
    extras.update(reported_extras(res))
    return end_to_end(samples, res), extras, res


def run_traced(workload, seed, seconds, deadline, tiny=False,
               corrupt=False):
    _s, _v, base = run_child(workload, seed, seconds, deadline, tiny=tiny,
                             corrupt=corrupt)
    _s, _v, traced = run_child(workload, seed, seconds, deadline,
                               tiny=tiny, traced=True, corrupt=corrupt)
    extras = reported_extras(base)
    layers = dict(traced["layers"])
    layers.update(base["counts"])
    layers.update({
        "process.minor_faults": base["minor_faults"],
        "loadgen.cpu_ms": base["loadgen_cpu_ms"],
        "remote.worker_cpu_ms": base["ext_cpu_ms"]
        if workload == "remote-shard" else 0.0,
        "trace.overhead": (throughput(traced) / host_scale(traced))
        / (throughput(base) / host_scale(base)),
    })
    for name in ("fresh_p50_ms", "fresh_p90_ms", "read_p50_ms",
                 "read_p90_ms", "write_p50_ms"):
        layers[name] = extras.get(name) or 0.0
    metrics = {name: layers.get(name, 0.0) for name, _unit in PER_LAYER}
    return metrics, extras, [base, traced]


def _print_table(workload, metrics, units, extras, results):
    ops = sum(r["ops"] for r in results)
    print(f"{workload}: {ops} ops, "
          f"{sum(len(r['mismatches']) for r in results)} mismatches")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6g} {units[name]}")
    for name, value in extras.items():
        shown = "n/a (<100 samples)" if value is None else f"{value:14.6g}"
        unit = {"error_ratio": "ratio", "raw ops_per_s": "1/s",
                "raw setup_s": "s",
                "host calibration_dropped": "count"}.get(name, "ms")
        print(f"  {name:26s} {shown} {unit}  (reported, not gated)")
    for r in results:
        for line in r["mismatches"][:20]:
            print(f"  MISMATCH {line}")


def run_workload(workload, seed, seconds, trace, tiny=False, corrupt=False):
    """Run one workload; returns ``(metrics, units, correct, attempted,
    failed)`` after printing its table."""
    deadline = perf_counter() + DEADLINE_S
    if trace:
        metrics, extras, results = run_traced(
            workload, seed, seconds, deadline, tiny=tiny, corrupt=corrupt)
        units = dict(PER_LAYER)
    else:
        metrics, extras, res = run_untraced(
            workload, seed, seconds, deadline, tiny=tiny, corrupt=corrupt,
            setups=1 if tiny else SETUPS)
        results = [res]
        units = dict(END_TO_END)
    _print_table(workload, metrics, units, extras, results)
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["mismatches"] for r in results)
    return metrics, units, correct, attempted, failed


def main(argv=None):
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small networks and one set-up (self-test size)")
    p.add_argument("--corrupt", action="store_true",
                   help="self-test: corrupt one recorded digest or fixed "
                        "point before the checks, which must then fail")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {PINNED_CPU})
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = {}
    correct, attempted, failed = True, 0, 0
    try:
        for name in names:
            metrics, units, ok, att, fail = run_workload(
                name, args.seed, args.seconds, args.trace, tiny=args.tiny,
                corrupt=args.corrupt)
            prefix = "" if args.workload else f"{name}."
            for key, value in metrics.items():
                out[prefix + key] = {"value": value, "unit": units[key]}
            correct = correct and ok
            attempted += att
            failed += fail
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(WORK)               # only when no other run uses it
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
