"""The benchmark's own tests (run with ``python -m pytest perfbench/tests``).

Tiny-size runs of every workload, the output checks' failure path, the
op streams' seed determinism, and ``BENCHMARK.json`` against the code.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, timeout=170):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    last = None
    if lines:
        try:
            last = json.loads(lines[-1])
        except ValueError:
            last = None
    return proc.returncode, last, proc


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    code, out, proc = _bench("--workload", workload, "--seed", "3",
                             "--seconds", "0.3", "--trace", str(trace),
                             "--tiny")
    assert code == 0, proc.stderr[-2000:]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_digest_or_fixed_point_makes_the_command_fail(workload):
    code, out, proc = _bench("--workload", workload, "--seed", "3",
                             "--seconds", "0.3", "--tiny", "--corrupt")
    assert code == 1, proc.stderr[-2000:]
    assert out["correct"] is False
    assert "MISMATCH" in proc.stdout


def _take(stream, count):
    return list(itertools.islice(stream, count))


def test_one_seed_gives_the_same_op_stream_twice():
    arcs = [(i, k) for i in range(12) for k in range(12) if i != k]

    def streams(seed):
        return (_take(workloads.svc_stream(seed, arcs, 12), 40),
                _take(workloads.grid_stream(seed), 20),
                _take(workloads.pv_stream(seed), 20),
                _take(workloads.remote_stream(seed), 20))

    assert streams(5) == streams(5)
    for a, b in zip(streams(5), streams(6)):
        assert a != b


def test_svc_writes_always_change_the_topology():
    arcs = [(i, k) for i in range(10) for k in range(10) if i != k]
    present = set(arcs)
    for (verb, i, k, edge_seed), nodes in _take(
            workloads.svc_stream(1, arcs, 10), 200):
        if verb == "remove_edge":
            assert (i, k) in present and edge_seed is None
            present.remove((i, k))
        else:
            assert (i, k) not in present and edge_seed is not None
            present.add((i, k))
        assert len(present) >= len(arcs) - 1
        assert len(set(nodes)) == len(nodes) == workloads.SVC["reads"]


@pytest.mark.parametrize("code, clean", [
    ("import time; time.sleep(30)", True),
    ("while True: pass", False),
])
def test_calibration_is_dropped_when_the_program_runs_beside_it(
        code, clean, monkeypatch):
    # a loop long enough for scheduler ticks to update the run time of
    # a process on another CPU
    monkeypatch.setattr(run, "calibrate", lambda: time.sleep(0.05) or 50.0)
    proc = subprocess.Popen([sys.executable, "-c", code])
    try:
        time.sleep(0.3)                  # past the interpreter's start-up
        loop_ms = run.calibrate_beside([proc.pid])
    finally:
        proc.kill()
        proc.wait()
    assert (loop_ms is not None) == clean
    assert loop_ms is None or loop_ms > 0


def test_set_up_speed_samples_read_in_calibration_loop_ms():
    import statistics
    loop = statistics.median(run.calibrate() for _ in range(5))
    sample = statistics.median(run.speed_sample() for _ in range(5))
    assert 0.5 < sample / loop < 2


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_the_command_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    code, out, proc = _bench("--workload", "grid-absolute", "--seed", "1",
                             "--seconds", "1", cwd=str(tmp_path), timeout=60)
    assert code != 0
    assert out is None
