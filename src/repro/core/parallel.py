"""Shared-memory parallel σ engine: destination-column sharding.

The parallel rung of the engine ladder (naive → incremental →
vectorized → **parallel** → batched → remote).  The vectorized engine
already turned σ into a numpy table-gather min-product over the dirty
columns of an ``(n, n)`` int code matrix; this module distributes that
product over a persistent pool of worker *processes*, exploiting the
same structural fact one level up: entry ``(i, j)`` of σ(X) only ever
reads **column j** of ``X``, so destination columns are fully
independent and can be sharded with zero cross-worker synchronisation
inside a round.

Architecture
------------

* The code matrix ``C``, the edge lookup tables and the per-round
  dirty / next-dirty bitmaps live in :mod:`multiprocessing.shared_memory`
  segments; every process maps them as numpy views, so no matrix bytes
  are ever pickled.  The rest of the topology snapshot travels as the
  small picklable half of
  :meth:`~repro.core.vectorized.TopologySnapshot.export`, and each
  worker rebuilds it with
  :meth:`~repro.core.vectorized.TopologySnapshot.restore`.
* Each worker owns a contiguous block of destination columns
  ``[lo, hi)`` (``np.array_split`` layout).  One σ round is the shared
  column-block round
  :func:`~repro.core.vectorized.sigma_block_round` over the owned
  block's dirty columns, written **in place** in shared memory (sound
  because no other worker reads them), with the changed columns
  flagged in the shared next-dirty bitmap.  Only the tiny per-round
  command tuple and a changed-column count cross the pipe — the
  dirty/fixed-point bitmaps themselves live in shared memory.
* The pool supplies only that round
  (:meth:`ParallelVectorizedEngine._advance`); the σ loop — trajectory,
  cycle detection, convergence on an empty union of per-worker changed
  columns (Definition 4), churn — is the vectorized rung's
  :func:`~repro.core.vectorized.iterate_sigma_vectorized`, and
  ``sigma`` / ``is_stable`` are its one-round cases.
* δ does not touch the pool: the engine inherits
  :meth:`~repro.core.vectorized.VectorizedEngine.delta_grid`, the
  compiled-schedule step every in-process codes rung shares.

The snapshot, the σ round and the σ loop are the vectorized rung's
primitives; this module keeps only transport, lifecycle and
supervision: the segments, the pool, its command loop and its liveness
guard.

Fallback & selection
--------------------

``EngineSpec("parallel")`` is safe to request anywhere: the session's
negotiation skips the rung (→ vectorized, which itself falls back to
incremental for non-finite algebras) when the algebra has no finite
encoding, when shared memory or the platform's process support is
missing, when ``workers`` resolves to ≤ 1, or — in auto mode
(``workers=None``) — when the host has a single CPU or the problem is
too small (``n <`` :data:`PARALLEL_MIN_N`) for process fan-out to pay.
Passing an explicit ``workers >= 2`` overrides the size heuristics
(tests and benchmarks do), but never the capability checks.
Constructing :class:`ParallelVectorizedEngine` directly raises
:class:`~repro.core.algebra.UnsupportedAlgebraError` with the reason,
mirroring :class:`~repro.core.vectorized.VectorizedEngine`.

Cache discipline & cleanup
--------------------------

Topology mutations are handled by the same ``adjacency.version``
contract as the vectorized engine: :meth:`ParallelVectorizedEngine.refresh`
(called at the top of every public entry point) rebuilds the edge-table
snapshot and **republishes** it — a fresh shared-memory segment plus a
``reload`` command to every worker, acknowledged before the old segment
is unlinked — so a mid-run ``set_edge`` / ``remove_edge`` can never
leave a worker computing against stale tables.

Worker processes and shared-memory segments are released by
:meth:`~ParallelVectorizedEngine.close` (idempotent; also a context
manager), by a ``weakref.finalize`` hook when the engine is garbage
collected, and by the owning :class:`~repro.session.RoutingSession`'s
close — an exception anywhere in a run must never leak a segment or a
process (``tests/core/test_parallel.py`` holds the engine to that).
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, List, Optional, Tuple

import multiprocessing as _mp
from multiprocessing import shared_memory as _shm

import numpy as np

from .algebra import UnsupportedAlgebraError
from .capabilities import Capabilities, register_engine
from .state import Network
from .vectorized import (
    _DTYPE,
    TopologySnapshot,
    VectorizedEngine,
    sigma_block_round,
    supports_vectorized,
)

#: auto-mode floor: below this many destinations the per-round IPC and
#: process fan-out outweigh the numpy work being sharded — the
#: committed BENCH_core.json measures the pool *losing* to the serial
#: vectorized engine at n=200 (0.8×) and winning at n=400 (1.3×) on a
#: memory-bandwidth-limited host, so auto mode only engages from the
#: size class where the win is demonstrated.  Explicit ``workers``
#: overrides it (the differential tests and benchmarks do).
PARALLEL_MIN_N = 256

#: seconds to wait on a worker reply before declaring the pool dead.
_REPLY_TIMEOUT = 120.0


def _mp_context():
    """Fork where available (cheap, inherits the numpy import), else
    spawn; ``None`` when this platform has no usable start method."""
    try:
        methods = _mp.get_all_start_methods()
    except Exception:                    # pragma: no cover - exotic platforms
        return None
    if "fork" in methods:
        return _mp.get_context("fork")
    if "spawn" in methods:               # pragma: no cover - non-posix
        return _mp.get_context("spawn")
    return None                          # pragma: no cover - no methods


def _split_columns(n: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``np.array_split``-style column blocks, one per
    worker (first ``n % workers`` blocks get the extra column) — the
    layout of the pool's workers and of the remote rung's shards."""
    base, extra = divmod(n, workers)
    blocks = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < extra else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


def supports_parallel(algebra) -> bool:
    """True when the parallel engine *could* run this algebra here.

    Capability only (finite encoding + shared memory + a process start
    method); whether fan-out is worthwhile for a given
    ``(n, workers)`` is the resolver's sizing check
    (:func:`repro.core.capabilities.resolve_engine`).
    """
    return _mp_context() is not None and supports_vectorized(algebra)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerState:
    """Everything one worker holds: shm attachments + numpy views."""

    def __init__(self):
        self.segments: Dict[str, "_shm.SharedMemory"] = {}
        self.C = None                    # (n, n) view of the code matrix
        self.dirty = None                # (n,) uint8 view (round input)
        self.next_dirty = None           # (n,) uint8 view (round output)
        self.topo = None                 # TopologySnapshot, shm tables
        self.lo = 0
        self.hi = 0
        self.trivial = 0
        self.invalid = 0

    def attach(self, key: str, name: str, shape, dtype):
        old = self.segments.pop(key, None)
        if old is not None:
            old.close()
        seg = _shm.SharedMemory(name=name)
        self.segments[key] = seg
        return np.ndarray(shape, dtype=dtype, buffer=seg.buf)

    def close(self):
        for seg in self.segments.values():
            try:
                seg.close()
            except OSError:              # pragma: no cover - already gone
                pass
        self.segments.clear()


def _worker_load(state: _WorkerState, meta: dict) -> None:
    """Attach the base segments and install the topology snapshot."""
    n = meta["n"]
    state.lo, state.hi = meta["block"]
    state.trivial = meta["trivial"]
    state.invalid = meta["invalid"]
    state.C = state.attach("C", meta["C"], (n, n), _DTYPE)
    state.dirty = state.attach("dirty", meta["dirty"], (n,), np.uint8)
    state.next_dirty = state.attach(
        "next_dirty", meta["next_dirty"], (n,), np.uint8)
    _worker_reload(state, meta)


def _worker_reload(state: _WorkerState, meta: dict) -> None:
    """(Re)install the topology snapshot after a publish/republish."""
    state.topo = TopologySnapshot.restore(meta, state.attach(
        "tables", meta["tables"], meta["tables_shape"], _DTYPE))


def _worker_sigma(state: _WorkerState, full: bool) -> int:
    """One σ round over this worker's dirty columns; returns #changed.

    The shared column-block round on the owned block of ``C``, in
    place: column ownership is exclusive, so no other worker reads what
    it writes.
    """
    lo, hi = state.lo, state.hi
    cols = np.arange(hi - lo) if full \
        else np.nonzero(state.dirty[lo:hi])[0]
    changed = sigma_block_round(state.topo, state.C[:, lo:hi], cols, lo,
                                state.trivial, state.invalid)
    state.next_dirty[lo + changed] = 1
    return int(changed.size)


def _worker_main(conn) -> None:
    """Worker process entry point: a command loop over one pipe end.

    Commands (tuples, first element is the verb):

    * ``("load", meta)``     — attach C/dirty/table segments → ack ``True``
    * ``("reload", meta)``   — swap in a republished table snapshot → ack
    * ``("sigma", full)``    — one σ round → #changed columns
    * ``("stop",)``          — drain and exit
    """
    state = _WorkerState()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break                    # master vanished: exit quietly
            cmd = msg[0]
            if cmd == "stop":
                break
            # relay failures instead of dying: a raised exception would
            # kill the (daemon) worker and reduce the master's error to
            # "died mid-command" with the real traceback lost to stderr
            try:
                if cmd == "sigma":
                    reply = _worker_sigma(state, msg[1])
                elif cmd == "load":
                    _worker_load(state, msg[1])
                    reply = True
                elif cmd == "reload":
                    _worker_reload(state, msg[1])
                    reply = True
                else:                    # pragma: no cover - protocol bug
                    reply = RuntimeError(f"unknown command {cmd!r}")
            except Exception as exc:
                reply = RuntimeError(
                    f"parallel worker failed on {cmd!r}: {exc!r}")
            conn.send(reply)
    finally:
        state.close()
        try:
            conn.close()
        except OSError:                  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------


class _PoolResources:
    """Owns every leak-prone handle, detached from the engine object.

    Kept separate so a ``weakref.finalize`` on the engine can close
    everything without keeping the engine alive; ``close`` is
    idempotent and tolerant of already-dead workers / already-unlinked
    segments, because it also runs on interpreter shutdown.
    """

    def __init__(self):
        self.segments: List["_shm.SharedMemory"] = []
        self.procs: List = []
        self.conns: List = []

    def add_segment(self, seg) -> None:
        self.segments.append(seg)

    def drop_segment(self, seg) -> None:
        """Unlink one segment early (e.g. a superseded table snapshot)."""
        if seg in self.segments:
            self.segments.remove(seg)
        _destroy_segment(seg)

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
        for proc in self.procs:
            if proc.is_alive():          # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2.0)
        for conn in self.conns:
            try:
                conn.close()
            except OSError:              # pragma: no cover
                pass
        for seg in self.segments:
            _destroy_segment(seg)
        self.segments = []
        self.procs = []
        self.conns = []


def _destroy_segment(seg) -> None:
    try:
        seg.close()
    except OSError:                      # pragma: no cover - already closed
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass                             # already unlinked (idempotent close)
    except OSError:                      # pragma: no cover
        pass


class ParallelVectorizedEngine(VectorizedEngine):
    """Column-sharded multi-process σ over shared code matrices.

    Extends :class:`~repro.core.vectorized.VectorizedEngine` — the
    encoding, codecs, the master's topology snapshot, the σ loop and
    the δ step (:meth:`~repro.core.vectorized.VectorizedEngine.delta_grid`,
    which runs on the master) are inherited; what this class adds is
    the shared-memory mirror of that snapshot and the worker pool that
    runs each σ round over it (:meth:`_advance`).

    The pool is started lazily on the first σ round and persists
    across calls; release it with :meth:`close` (or use the engine as a
    context manager).  A ``weakref.finalize`` backstop releases
    everything if the engine is dropped without closing.
    """

    #: advertised to the capability resolver: a finite encoding plus a
    #: shared-memory pool of >= 2 workers; auto mode declines problems
    #: below :data:`PARALLEL_MIN_N`; δ is the inherited compiled step,
    #: with the vectorized rung's policy (bounded schedules, no kept
    #: histories).
    capabilities = register_engine(Capabilities(
        rung="parallel",
        requires_finite_algebra=True,
        requires_shared_memory=True,
        min_n=PARALLEL_MIN_N,
        min_workers=2,
        supports_unbounded_schedules=False,
        supports_kept_history=False,
    ))

    def __init__(self, network: Network, workers: Optional[int] = None):
        ctx = _mp_context()
        if ctx is None:
            raise UnsupportedAlgebraError(
                "parallel engine unavailable: multiprocessing shared "
                "memory is not supported on this platform")
        resolved = (min(int(workers), network.n) if workers is not None
                    else min(os.cpu_count() or 1, network.n))
        if resolved < 2:
            raise UnsupportedAlgebraError(
                f"parallel engine needs >= 2 workers (resolved {resolved}); "
                "use the vectorized engine instead")
        self._res = _PoolResources()
        self._finalizer = weakref.finalize(self, self._res.close)
        super().__init__(network)        # raises for non-finite algebras
        self.workers = resolved
        self._ctx = ctx
        #: the snapshot the workers hold (republished when it moves)
        self._published: Optional[TopologySnapshot] = None
        self._seg_C = self._seg_dirty = self._seg_next = None
        self._C_view = self._dirty_view = self._next_view = None
        self._seg_tables = None
        self._blocks = _split_columns(network.n, resolved)

    # -- pool / shared-memory lifecycle ----------------------------------

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        self._finalizer()                # runs _res.close at most once

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "ParallelVectorizedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _alloc(self, nbytes: int):
        seg = _shm.SharedMemory(create=True, size=max(int(nbytes), 1))
        self._res.add_segment(seg)
        return seg

    def _matrix_segment(self):
        n = self._n
        seg = self._alloc(n * n * np.dtype(_DTYPE).itemsize)
        return seg, np.ndarray((n, n), dtype=_DTYPE, buffer=seg.buf)

    def _publish(self):
        """Copy the current snapshot's tables into a fresh segment;
        returns it and the ``restore`` meta naming it (the small index
        arrays travel over the pipe, the dense tables stay in shared
        memory)."""
        meta, tables = self._topo.export()
        seg = self._alloc(tables.nbytes)
        np.ndarray(tables.shape, dtype=_DTYPE, buffer=seg.buf)[:] = tables
        self._published = self._topo
        return seg, dict(meta, tables=seg.name)

    def _ensure_pool(self) -> None:
        """Start the workers (first use) or republish a stale snapshot."""
        if self.closed:
            raise RuntimeError("engine is closed; build a new one")
        if not self._res.procs:
            n = self._n
            self._seg_C, self._C_view = self._matrix_segment()
            self._seg_dirty = self._alloc(n)
            self._dirty_view = np.ndarray((n,), dtype=np.uint8,
                                          buffer=self._seg_dirty.buf)
            self._seg_next = self._alloc(n)
            self._next_view = np.ndarray((n,), dtype=np.uint8,
                                         buffer=self._seg_next.buf)
            self._seg_tables, meta = self._publish()
            base = dict(
                meta, n=n, trivial=self.trivial_code,
                invalid=self.invalid_code, C=self._seg_C.name,
                dirty=self._seg_dirty.name, next_dirty=self._seg_next.name)
            for block in self._blocks:
                parent, child = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=_worker_main, args=(child,), daemon=True,
                    name=f"repro-sigma-{block[0]}-{block[1]}")
                proc.start()
                child.close()
                self._res.conns.append(parent)
                self._res.procs.append(proc)
                parent.send(("load", dict(base, block=block)))
            self._collect()              # acks
        elif self._published is not self._topo:
            old = self._seg_tables
            self._seg_tables, meta = self._publish()
            self._broadcast(("reload", meta))
            self._collect()              # all workers on the new snapshot
            self._res.drop_segment(old)

    def _broadcast(self, msg) -> None:
        for conn in self._res.conns:
            conn.send(msg)

    def _collect(self) -> list:
        """One reply per worker, with a liveness guard (a worker that
        died mid-command would otherwise hang the master forever)."""
        replies = []
        for conn, proc in zip(self._res.conns, self._res.procs):
            if not conn.poll(_REPLY_TIMEOUT):
                self.close()
                raise RuntimeError(
                    f"parallel worker {proc.name} did not reply within "
                    f"{_REPLY_TIMEOUT}s (alive={proc.is_alive()})")
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                self.close()
                raise RuntimeError(
                    f"parallel worker {proc.name} died mid-command")
            if isinstance(reply, Exception):
                self.close()
                raise reply
            replies.append(reply)
        return replies

    # -- σ ---------------------------------------------------------------

    def _advance(self, C: "np.ndarray", dirty: Optional["np.ndarray"]):
        """One σ round on the pool: ``(σ(C) in a fresh array, changed
        columns)``, the step :func:`~repro.core.vectorized.iterate_sigma_vectorized`
        drives.

        ``C`` is copied into the shared code matrix and ``dirty`` into
        the shared bitmap (``None`` runs every column); the workers
        recompute their dirty columns in place and flag the changed ones
        in the next-dirty bitmap.
        """
        self._ensure_pool()
        self._C_view[:] = C
        full = dirty is None
        if not full:
            self._dirty_view[:] = 0
            self._dirty_view[dirty] = 1
        self._next_view[:] = 0
        self._broadcast(("sigma", full))
        self._collect()
        return self._C_view.copy(), np.nonzero(self._next_view)[0]
