"""Outside-in tracing: wrappers around the program's layer boundaries.

Nothing here edits the program. :func:`install` replaces public
functions and methods with wrappers that record into a
:class:`Recorder`, then the per-layer metrics are computed from the
recorded spans by :func:`layer_totals`.

Three kinds of wrapper keep the traced run close to the untraced one:

* a *span* records name, start, end and parent, for calls whose self
  time must exclude the wrapped calls below them;
* a *leaf* is timed, but when a span is open on the thread it only adds
  its time and count to that span, so hot leaves allocate nothing;
* a *count* is not timed at all (algebra choice, edge application,
  per-entry beta) and is added to the innermost open span.

Clocks are ``perf_counter_ns`` (CLOCK_MONOTONIC), shared by every
process on the host, so spans dumped by the daemon join the load
generator's request spans by time.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import threading
from time import perf_counter_ns

# span layout: [name, start_ns, end_ns, parent, child_ns, counts]
NAME, START, END, PARENT, CHILD, COUNTS = range(6)


class Recorder:
    """Spans and counts, held in memory until :meth:`dump`."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._gc_start = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, extra=None):
        """A span; ``extra(result, args)`` may return counts to add."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            rec = [name, perf_counter_ns(), 0, parent, 0, {}]
            self.spans.append(rec)
            stack.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = perf_counter_ns()
                if parent is not None:
                    parent[CHILD] += rec[END] - rec[START]
            if extra is not None:
                _add(rec[COUNTS], extra(out, args))
            return out
        return wrapper

    def leaf(self, name, fn, extra=None):
        """Timed; folded into the open span on this thread, if any."""
        key_ns = name + ":ns"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
            if stack:
                parent = stack[-1]
                parent[CHILD] += t1 - t0
                counts = parent[COUNTS]
            else:
                rec = [name, t0, t1, None, 0, {}]
                self.spans.append(rec)
                counts = rec[COUNTS]
            counts[name] = counts.get(name, 0) + 1
            counts[key_ns] = counts.get(key_ns, 0) + (t1 - t0)
            if extra is not None:
                _add(counts, extra(out, args))
            return out
        return wrapper

    def count(self, name, fn):
        """Counted, not timed; calls outside every span are not seen."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack:
                counts = stack[-1][COUNTS]
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = perf_counter_ns()
            return
        if self._gc_start is None:
            return
        dt = perf_counter_ns() - self._gc_start
        self._gc_start = None
        stack = getattr(self._local, "stack", None)
        if stack:
            parent = stack[-1]
            parent[CHILD] += dt
            counts = parent[COUNTS]
            counts["process.gc:ns"] = counts.get("process.gc:ns", 0) + dt

    # -- output --------------------------------------------------------

    def dump(self, path):
        """Write every span (parents as indices) to ``path`` as JSON."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[s[NAME], s[START], s[END],
                 index.get(id(s[PARENT]), -1) if s[PARENT] is not None
                 else -1, s[CHILD], s[COUNTS]] for s in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
        os.replace(tmp, path)


def _add(counts, extra):
    for key, value in (extra or {}).items():
        counts[key] = counts.get(key, 0) + value


def load_spans(path):
    """Spans written by :meth:`Recorder.dump`, parents re-linked."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = json.load(fh)
    spans = [list(r) for r in rows]
    for s in spans:
        s[PARENT] = spans[s[PARENT]] if s[PARENT] >= 0 else None
    return spans


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------


def _patch_function(module, attr, wrapper_of):
    """Replace ``module.attr`` and every ``repro`` module's binding of
    the same function object (``from x import f`` copies)."""
    orig = getattr(module, attr)
    wrapped = wrapper_of(orig)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if name == "repro" or name.startswith("repro."):
            if mod.__dict__.get(attr) is orig:
                setattr(mod, attr, wrapped)
    return orig


def _patch_method(cls, attr, wrapper_of):
    setattr(cls, attr, wrapper_of(getattr(cls, attr)))


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _rounds(result, _args):
    return {"vectorized.rounds": result.rounds}


def _grid_steps(results, _args):
    steps = [r.converged_at or r.steps for r in results]
    return {"vectorized.grid_steps": max(steps) if steps else 0}


def install(rec: Recorder, *, algebra_types=(), edge_types=()):
    """Wrap every layer boundary the benchmark measures.

    ``algebra_types`` / ``edge_types`` are the classes whose ``choice``
    / ``__call__`` are counted (the hot inner calls of the object
    engines). ``os.fsync`` is timed too: only the daemon's journal
    calls it.
    """
    import repro.core.capabilities as capabilities
    import repro.core.incremental as incremental
    import repro.core.remote as remote
    import repro.core.schedule as schedule
    import repro.core.state as state
    import repro.core.synchronous  # noqa: F401  (binds incremental names)
    import repro.core.vectorized as vectorized
    import repro.core.wire as wire
    import repro.scenarios.events as events
    import repro.scenarios.registry as registry
    import repro.scenarios.survey  # noqa: F401  (binds compile_event)
    import repro.service.daemon  # noqa: F401  (binds protocol names)
    import repro.service.persistence as persistence
    import repro.service.protocol as protocol
    import repro.session as session

    S = session.RoutingSession
    for verb in ("sigma", "delta", "delta_grid", "replay"):
        _patch_method(S, verb, lambda f, v=verb: rec.span(f"session.{v}", f))
    _patch_function(capabilities, "resolve_engine",
                    lambda f: rec.leaf("capabilities.resolve", f))

    V = vectorized.VectorizedEngine
    _patch_method(V, "refresh", lambda f: rec.leaf("vectorized.refresh", f))
    _patch_method(V, "encode_state",
                  lambda f: rec.leaf("vectorized.codec", f))
    _patch_method(V, "decode_state",
                  lambda f: rec.leaf("vectorized.codec", f))
    _patch_function(vectorized, "iterate_sigma_vectorized",
                    lambda f: rec.span("vectorized.sigma", f, _rounds))
    _patch_method(vectorized.BatchedVectorizedEngine, "delta_grid",
                  lambda f: rec.span("vectorized.grid", f, _grid_steps))

    _patch_method(schedule.CompiledSchedule, "beta_times_for",
                  lambda f: rec.leaf("schedule.beta_row", f))
    for cls in _subclasses(schedule.Schedule):
        if "beta" in cls.__dict__:
            _patch_method(cls, "beta",
                          lambda f: rec.count("schedule.beta", f))

    for fn in ("sigma_with_dirty", "sigma_propagate"):
        _patch_function(incremental, fn,
                        lambda f: rec.leaf("incremental.sigma", f))
    for cls in algebra_types:
        _patch_method(cls, "choice", lambda f: rec.count("algebras.choice", f))
    for cls in edge_types:
        _patch_method(cls, "__call__",
                      lambda f: rec.count("algebras.extend", f))

    _patch_function(events, "compile_event",
                    lambda f: rec.span("scenarios.compile", f))
    _patch_function(registry, "build_scenario_network",
                    lambda f: rec.span("scenarios.build", f))
    for verb in ("set_edge", "remove_edge"):
        _patch_method(state.Network, verb,
                      lambda f: rec.leaf("state.mutate", f))

    _patch_function(protocol, "state_digest",
                    lambda f: rec.leaf("protocol.digest", f))
    _patch_function(protocol, "encode_frame",
                    lambda f: rec.leaf(
                        "protocol.encode", f,
                        lambda out, _a: {"protocol.reply_bytes": len(out)}))
    P = persistence.ServicePersistence
    _patch_method(P, "append", lambda f: rec.span("persistence.append", f))
    _patch_method(P, "flush", lambda f: rec.span("persistence.flush", f))
    os.fsync = rec.leaf("persistence.fsync", os.fsync)

    header = len(wire.encode_frame(0, b""))
    F = wire.FrameConnection
    _patch_method(F, "send", lambda f: rec.leaf(
        "wire.send", f,
        lambda _o, a: {"wire.bytes_sent": header + len(
            a[2] if len(a) > 2 else b"")}))
    _patch_method(F, "recv", lambda f: rec.leaf(
        "wire.recv", f,
        lambda out, _a: {"wire.bytes_received": header + len(out[1])}))
    for fn in ("encode_update", "decode_update", "pack_payload",
               "unpack_payload"):
        _patch_function(wire, fn, lambda f: rec.leaf("wire.codec", f))
    _patch_function(remote, "delta_run_remote",
                    lambda f: rec.span("remote.delta", f))

    gc.callbacks.append(rec._on_gc)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def in_window(spans, t0, t1):
    """Spans that started inside ``[t0, t1]``."""
    return [s for s in spans if t0 <= s[START] <= t1]


def layer_totals(spans):
    """``{name: self ns}`` of every span name and leaf, plus every
    count. A span's self time is its duration minus its wrapped
    children's (leaves, spans and garbage collection)."""
    totals = {}
    for s in spans:
        own = s[END] - s[START] - s[CHILD]
        key = s[NAME] + ":ns"
        if not (s[PARENT] is None and key in s[COUNTS]):
            # a top-level leaf carries its own time in COUNTS already
            totals[key] = totals.get(key, 0) + own
            totals[s[NAME]] = totals.get(s[NAME], 0) + 1
        for k, v in s[COUNTS].items():
            totals[k] = totals.get(k, 0) + v
    return totals


def union_ns(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def covered_ns(spans, windows):
    """Time inside ``windows`` covered by top-level ``spans``."""
    tops = sorted((s[START], s[END]) for s in spans if s[PARENT] is None)
    total = 0
    for w0, w1 in windows:
        clipped = [(max(a, w0), min(b, w1)) for a, b in tops
                   if a < w1 and b > w0]
        total += union_ns(clipped)
    return total
