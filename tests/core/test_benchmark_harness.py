"""Smoke coverage for benchmarks/run_benchmarks.py.

Tier-1 runs only the tiny ``smoke`` scale (a second or two); the real
suites are invoked explicitly (``--quick`` / full) and the full-scale
pytest entry is gated behind the ``perfbench`` marker, which
``pytest.ini`` deselects by default.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import run_benchmarks  # noqa: E402


class TestSmokeSuite:
    def test_smoke_suite_agrees_and_bounds_memory(self):
        report = run_benchmarks.run_suite("smoke", repeats=1)
        assert report["meta"]["all_fixed_points_equal"]
        assert report["sigma"] and report["delta"]
        # smoke stays pool-free, but the columns must exist in the schema
        assert "parallel" in report
        assert "batched" in report
        assert "remote" in report
        assert "service" in report
        assert "windowed_ipc" in report
        assert "scenarios" in report
        assert report["warm_sigma"]
        assert report["meta"]["cpu_count"] >= 1
        for row in report["sigma"]:
            assert row["fixed_points_equal"], row["case"]
            assert row["converged"], row["case"]
        for row in report["delta"]:
            assert row["fixed_points_equal"], row["case"]
            assert row["memory_bounded"], row["case"]
            assert (row["bounded_history_retained"]
                    <= row["max_read_back"] + 2), row["case"]

    def test_main_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = run_benchmarks.main(["--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["meta"]["scale"] == "smoke"
        assert capsys.readouterr().out      # the table was printed

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            run_benchmarks.run_suite("galactic")


BASELINE = json.loads(run_benchmarks.BASELINE.read_text())
COMMITTED, RUN = run_benchmarks.COMMITTED, run_benchmarks.RUN


def _rows(report, column):
    rows = report[column]
    return [rows] if isinstance(rows, dict) else rows


def _past(op, bound):
    """A value that fails ``value op bound``."""
    if op == "==":
        if isinstance(bound, bool):
            return not bound
        return ["pushed"] if bound == [] else bound + 1
    return {">=": bound - 1, "<=": bound + 1, ">": bound}[op]


def _headline_parallel(report):
    return next(r for r in report["parallel"] if r["headline_parallel"])


def _slow_pool(report):
    # no single field holds the best >= 4-worker speedup
    for point in _headline_parallel(report)["scaling"]:
        if point["workers"] >= 4:
            point["vs_vectorized"] = 0.5


def _skip_headline(report):
    # the baseline host ran the headline: skip it without the reason
    _headline_parallel(report)["skipped"] = "no pool"


def _skip_remote(report):
    report["remote"][0]["skipped"] = "no loopback workers"


def _warm_row(**past):
    """The committed baseline predates the run-only ``warm_sigma``
    column: give it one passing row, with ``past`` pushing one field
    over its gate."""
    def push(report):
        report["warm_sigma"] = [dict(
            {"case": "gnp-200/hop-count/sigma-after-write",
             "fixed_points_equal": True, "warm_vs_cold": 10.0}, **past)]
    return push


_PUSH = {"parallel.scaling": _slow_pool,
         "parallel.skip-reason": _skip_headline,
         "remote.ran": _skip_remote,
         "warm_sigma.agreement": _warm_row(fixed_points_equal=False),
         "warm_sigma.speedup": _warm_row(warm_vs_cold=1.5)}


def _push(report, gate):
    """Push one value of ``report`` past ``gate``'s bound (a presence
    gate loses the rows it counts)."""
    if gate.name in _PUSH:
        return _PUSH[gate.name](report)
    if gate.metric is None:
        report[gate.column] = [r for r in report[gate.column]
                               if not gate.rows(r)]
        return
    row = next(r for r in _rows(report, gate.column) if gate.rows(r))
    bound = gate.bound(row, report["meta"]) if callable(gate.bound) \
        else gate.bound
    *path, key = gate.metric.split(".")
    for part in path:
        row = row[part]
    row[key] = _past(gate.op, bound)


GATE_CASES = [(gate, which) for gate in run_benchmarks.GATES
              for which in ((COMMITTED, RUN)
                            if gate.reports == run_benchmarks.BOTH
                            else (gate.reports,))]


class TestGates:
    """BENCH_core.json is the committed perf trajectory: every floor and
    ceiling in ``run_benchmarks.GATES`` holds on it, and each gate
    fails on its own when one value crosses its bound."""

    @pytest.mark.parametrize("which", [COMMITTED, RUN])
    def test_committed_baseline_passes_every_gate(self, which):
        assert run_benchmarks.check_gates(BASELINE, which) == []

    @pytest.mark.parametrize(
        "gate, which", GATE_CASES,
        ids=[f"{which}:{gate.name}" for gate, which in GATE_CASES])
    def test_each_gate_fails_alone(self, gate, which):
        report = copy.deepcopy(BASELINE)
        _push(report, gate)
        failed = run_benchmarks.check_gates(report, which)
        assert [name for name, _problem in failed] == [gate.name], failed

    def test_parallel_floor_follows_the_baseline_host(self):
        floor = run_benchmarks.parallel_floor
        assert floor({"usable_cpus": 2, "sigma_kernel_ceiling": 3.0}) is None
        assert floor({"usable_cpus": 4, "sigma_kernel_ceiling": 3.0}) == 2.0
        assert floor({"usable_cpus": 4}) == 2.0
        assert floor({"usable_cpus": 4, "sigma_kernel_ceiling": 1.03}) == 0.82

    def test_ci_gate_holds_one_committed_column(self, tmp_path, monkeypatch,
                                                capsys):
        assert run_benchmarks.ci_gate("faults") == 0
        report = copy.deepcopy(BASELINE)
        _push(report, run_benchmarks.GATE["faults.heal-p99"])
        _push(report, run_benchmarks.GATE["remote.compression"])
        path = tmp_path / "BENCH_core.json"
        path.write_text(json.dumps(report))
        monkeypatch.setattr(run_benchmarks, "BASELINE", path)
        assert run_benchmarks.ci_gate("faults") == 1
        out = capsys.readouterr().out
        assert "time-to-heal" in out and "compress" not in out


@pytest.mark.perfbench
class TestFullQuickSuite:
    """Deselected in tier-1 (see pytest.ini); run with -m perfbench."""

    def test_quick_suite(self):
        report = run_benchmarks.run_suite("quick", repeats=1)
        assert report["meta"]["all_fixed_points_equal"]
        assert run_benchmarks.check_gates(report, RUN) == []
