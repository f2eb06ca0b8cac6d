"""Process accounting and summary statistics for the benchmark.

CPU time, peak resident set and page faults are read from ``/proc``
so that the daemon and the remote workers, which are other processes,
are measured the same way as the benchmark process itself.
"""

from __future__ import annotations

import math
import os
import statistics

_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int):
    with open(f"/proc/{pid}/stat", "rb") as fh:
        raw = fh.read().decode("ascii", "replace")
    # the command name may contain spaces; fields resume after ')'
    return raw[raw.rindex(")") + 2:].split()


def cpu_ms(pid: int) -> float:
    """User + system CPU of ``pid`` (all its threads), in ms."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) * 1e3 / _TICKS


def _threads(pids):
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except FileNotFoundError:        # the process ended
            continue
        for tid in tids:
            yield f"/proc/{pid}/task/{tid}"


def busy(pids) -> bool:
    """Whether a thread of ``pids`` is running or wants to run."""
    for task in _threads(pids):
        try:
            with open(f"{task}/stat", "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:        # the thread ended meanwhile
            continue
        if raw[raw.rindex(b")") + 2:][:1] == b"R":
            return True
    return False


def thread_run_ns(pids) -> dict:
    """``{thread: ns on a CPU so far}`` for every thread of ``pids``,
    from ``schedstat`` (nanoseconds, unlike the ticks of ``stat``)."""
    out = {}
    for task in _threads(pids):
        try:
            with open(f"{task}/schedstat", "rb") as fh:
                out[task] = int(fh.read().split()[0])
        except FileNotFoundError:
            pass
    return out


def ran_ns(before: dict, after: dict) -> int:
    """CPU time the threads of two :func:`thread_run_ns` readings got
    in between (threads that started in between count in full)."""
    return sum(ns - before.get(key, 0) for key, ns in after.items())


def minor_faults(pid: int) -> int:
    return int(_stat_fields(pid)[7])


def peak_rss_mb(pid: int) -> float:
    """VmHWM of ``pid`` in MB (2**20 bytes)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(0.9 * len(ordered)))
    return float(ordered[rank - 1])
