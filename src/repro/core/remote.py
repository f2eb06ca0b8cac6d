"""Remote σ/δ engine: destination-column sharding over TCP.

The sixth ladder rung takes the parallel engine's column-sharding
protocol across an address-space boundary: a coordinator (the engine)
connects to TCP *workers*, ships each one the topology snapshot
(:meth:`~repro.core.vectorized.TopologySnapshot.export`, rebuilt by
:meth:`~repro.core.vectorized.TopologySnapshot.restore`) plus a
contiguous block of destination columns, and drives two protocols —

* **σ**: per round the coordinator broadcasts one command; each worker
  runs the shared column-block round
  (:func:`~repro.core.vectorized.sigma_block_round`) over its dirty
  columns locally (dirty tracking is block-local, so rounds need zero
  cross-worker synchronisation) and replies with a delta-encoded
  summary of the columns that changed, which the coordinator applies
  to a copy of the round's input.  That
  round is all the engine supplies
  (:meth:`RemoteVectorizedEngine._advance`): the σ loop — trajectory,
  cycle detection, convergence on an empty union of changed columns,
  churn — is the vectorized rung's
  :func:`~repro.core.vectorized.iterate_sigma_vectorized`.
* **δ**: the loop is the vectorized rung's
  :meth:`~repro.core.vectorized.VectorizedEngine.delta_grid`; this
  engine supplies its hooks.  A window is one command of up to
  :data:`DELTA_WINDOW` steps read off the compiled schedule: a JSON
  head of step sizes, and a binary tail of every step's active nodes
  and then its read-backs ``t − β`` over their in-edges, in narrow
  dtypes; the workers fold every step with the shared δ kernel
  (:func:`~repro.core.vectorized.delta_fold`) against local history
  rings and reply per-step changed flags, and the state at a step is
  *fetched* (delta-encoded against the last fetch) — so convergence
  decisions, round counts, and final states are bit-identical to the
  serial engines.

The σ round, the δ kernel and the snapshot are the vectorized rung's
primitives; this module keeps only transport, lifecycle and
supervision.  On the coordinator every state transfer goes through
two methods: :meth:`RemoteVectorizedEngine._install` ships full code
matrices to the shards and :meth:`RemoteVectorizedEngine._collect_updates`
decodes their replies into the mirror.

Everything on the socket uses :mod:`repro.core.wire`: framed, versioned
messages whose state payloads are delta-encoded and quantized (narrowest
carrier dtype).  The engine's :attr:`~RemoteVectorizedEngine.wire_stats`
records bytes/round, commands/round and the compression ratio against
naive full-block transfer; the session surfaces them on reports and the
benchmark harness regression-gates them.

Workers are plain functions over TCP (:func:`serve_worker`), launchable
as ``python -m repro.cli worker`` on any host, or spawned as local
subprocesses for single-host testing (``workers=k``).  Failure handling
is deterministic: a dropped, dead, or silent worker surfaces as a typed
:class:`RemoteWorkerError` carrying the shard id and the last fully
acknowledged protocol round — never a hang (every coordinator socket
has a configurable timeout) — while malformed or version-skewed peers
raise :class:`~repro.core.wire.WireFormatError` /
:class:`~repro.core.wire.WireVersionError`.

The engine owns its pool's lifecycle (:meth:`RemoteVectorizedEngine._ensure_pool`):
a topology change republishes the snapshot over the live connections
(one :data:`~repro.core.wire.MSG_LOAD` per shard, as at the first
build), and a failure tears the pool down before the typed error
surfaces, so the next call builds a new one.  :meth:`close` only
releases an engine its owner is done with.
"""

from __future__ import annotations

import random
import socket
import time
import weakref
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import UnsupportedAlgebraError
from .asynchronous import AsyncResult
from .capabilities import (
    Capabilities,
    DegradedEvent,
    logger as _engine_log,
    register_engine,
)
from .faults import FaultPlan
from .parallel import _mp_context, _reap_workers, _split_columns
from .schedule import Schedule
from .state import Network, RoutingState
from .vectorized import (
    _DTYPE,
    TopologySnapshot,
    VectorizedEngine,
    delta_fold,
    sigma_block_round,
)
from .wire import (
    MSG_ACK,
    MSG_CKPT,
    MSG_DELTA_INIT,
    MSG_DELTA_STEPS,
    MSG_ERROR,
    MSG_FETCH,
    MSG_FLAGS,
    MSG_LOAD,
    MSG_PING,
    MSG_SIGMA_INIT,
    MSG_SIGMA_ROUND,
    MSG_STOP,
    MSG_UPDATE,
    FrameConnection,
    WireClosedError,
    WireError,
    WireFormatError,
    WireStats,
    WireVersionError,
    carrier_dtype,
    decode_chain,
    decode_update,
    encode_chain,
    encode_update,
    naive_update_bytes,
    pack_payload,
    unpack_payload,
    wire_dtype,
)

__all__ = [
    "DELTA_WINDOW",
    "REMOTE_MIN_N",
    "REMOTE_TIMEOUT",
    "REMOTE_MAX_RETRIES",
    "RemoteError",
    "RemoteWorkerError",
    "RemoteVectorizedEngine",
    "serve_worker",
    "spawn_loopback_workers",
    "delta_run_remote",
]

#: below this many destinations the wire fan-out cannot pay; unlike the
#: parallel engine's auto-mode floor this gate applies even to explicit
#: requests (remote is never chosen by auto mode at all), because a
#: 2-column shard per round-trip is pure overhead at any batch size.
REMOTE_MIN_N = 4

#: default coordinator socket timeout (seconds): a worker that neither
#: replies nor closes within this window is declared dead.
REMOTE_TIMEOUT = 120.0

#: how many recoveries the supervisor attempts per run before the
#: original typed error surfaces (``strict=True`` attempts zero).
REMOTE_MAX_RETRIES = 3

#: exponential-backoff schedule for recovery attempts: the k-th retry
#: sleeps ``min(BASE * 2**(k-1), CAP)`` seconds, jittered into
#: ``[0.5x, 1.0x]`` so respawned fleets never thunder in lockstep.
RETRY_BACKOFF_BASE = 0.05
RETRY_BACKOFF_CAP = 1.0

#: endpoint probation: a dead endpoint is parked and re-probed (one
#: lightweight MSG_PING hello on a fresh socket) no sooner than
#: ``min(BASE * 2**(k-1), CAP)`` seconds after its k-th failure; a
#: successful probe re-admits it and the next pool build re-shards back
#: towards the original column layout.
PROBATION_BASE = 0.25
PROBATION_CAP = 30.0

#: default number of δ schedule steps shipped per worker command: the
#: workers hold the history ring, so nothing about a step depends on
#: the coordinator seeing its predecessor first, and a window of 16
#: cuts the per-step command count ≥ 8× on any run longer than a
#: couple of windows.
DELTA_WINDOW = 16

#: capture a δ checkpoint every this many windows (when the retry
#: budget is live): the worker ring tail travels to the coordinator so
#: a heal resumes from the last checkpoint instead of replaying the
#: whole run — O(window) recovery instead of O(steps).
DELTA_CKPT_EVERY = 4


class RemoteError(RuntimeError):
    """Remote-engine failure that is not attributable to one worker."""


class RemoteWorkerError(RemoteError):
    """A specific shard failed: died, hung past the timeout, or relayed
    a worker-side exception.

    Carries the shard id, its endpoint, and the last protocol round the
    coordinator had fully acknowledged before the failure, so callers
    know exactly how far the run provably progressed.
    """

    def __init__(self, message: str, shard_id: Optional[int] = None,
                 endpoint: Optional[Tuple[str, int]] = None,
                 last_acked_round: Optional[int] = None):
        super().__init__(message)
        self.shard_id = shard_id
        self.endpoint = endpoint
        self.last_acked_round = last_acked_round


class _ShardFault(Exception):
    """Internal signal: one shard failed mid-protocol.

    Raised by the coordinator's wire plumbing instead of a terminal
    error so the supervisor loop can decide — heal (rebuild the pool,
    resume from the last barrier-consistent state) or surface the same
    typed error the pre-supervision engine raised (``strict=True``, or
    retries exhausted).  Never escapes the engine's public API.

    ``kind`` classifies the failure for terminal re-raising:
    ``conn`` (closed/refused/timed out), ``format`` (corrupt or torn
    frames/payloads, either side's), ``protocol`` (well-formed but
    out-of-discipline reply), ``worker-error`` (a relayed
    :data:`MSG_ERROR` from a failing handler).
    """

    def __init__(self, idx: Optional[int], exc: BaseException,
                 kind: str = "conn", message: Optional[str] = None):
        super().__init__(str(exc))
        self.idx = idx
        self.exc = exc
        self.kind = kind
        self.message = message

    def describe(self) -> str:
        return f"{self.kind} fault ({type(self.exc).__name__}: {self.exc})"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _ShardState:
    """Everything one TCP worker holds for its column block ``[lo, hi)``.

    Unlike the shared-memory pool, nothing here aliases coordinator
    state: the block, the δ ring and the snapshot are private arrays,
    synchronised purely through delta-encoded wire updates.
    ``baseline`` is the block as the coordinator last acknowledged it —
    the reference every outgoing update is encoded against.
    """

    def __init__(self):
        self.n = 0
        self.lo = 0
        self.hi = 0
        self.trivial = 0
        self.invalid = 0
        self.carrier = 0
        self.topo = None                 # TopologySnapshot
        self.C = None                    # (n, width) σ block
        self.dirty = None                # (width,) bool, block-local
        self.baseline = None             # (n, width) last acked block
        self.ring = None                 # δ history ring, (W, n, width)
        self.window = 0

    @property
    def width(self) -> int:
        return self.hi - self.lo


def _shard_load(state: _ShardState, meta: dict, tail: bytes) -> None:
    """Install the topology snapshot: JSON meta + raw int32 tables."""
    state.n = int(meta["n"])
    state.lo, state.hi = (int(v) for v in meta["block"])
    state.trivial = int(meta["trivial"])
    state.invalid = int(meta["invalid"])
    state.carrier = int(meta["carrier"])
    n_edges, size = (int(v) for v in meta["tables_shape"])
    if len(tail) != n_edges * size * 4:
        raise WireFormatError(
            f"table blob is {len(tail)} bytes, expected "
            f"{n_edges * size * 4} for shape ({n_edges}, {size})")
    state.topo = TopologySnapshot.restore(
        meta, np.frombuffer(tail, dtype="<i4").reshape(
            n_edges, size).astype(_DTYPE))


def _invalid_block(state: _ShardState) -> "np.ndarray":
    """The all-invalid block every state install is delta-encoded
    against (identity starts diff only on the diagonal, so installs are
    nearly free on the wire)."""
    return np.full((state.n, state.width), state.invalid, dtype=_DTYPE)


def _shard_sigma_init(state: _ShardState, blob: bytes) -> None:
    state.C = _invalid_block(state)
    decode_update(blob, state.C)
    state.baseline = state.C.copy()
    state.dirty = np.zeros(state.width, dtype=bool)


def _shard_sigma_round(state: _ShardState, full: bool) -> Tuple[int, bytes]:
    """One σ round over the block's dirty columns.

    The shared column-block round, as in the shared-memory pool's
    ``_worker_sigma``, but the dirty set lives here (column ownership
    is exclusive, so no other process ever needs it) and the changed
    columns travel back as a delta-encoded update.
    """
    if state.C is None:
        raise RemoteError("sigma round before sigma init")
    cols = np.arange(state.width) if full else np.nonzero(state.dirty)[0]
    changed = sigma_block_round(state.topo, state.C, cols, state.lo,
                                state.trivial, state.invalid)
    state.dirty = np.zeros(state.width, dtype=bool)
    state.dirty[changed] = True
    blob = encode_update(state.baseline, state.C, state.carrier)
    state.baseline[:] = state.C
    return int(changed.size), blob


def _shard_delta_init(state: _ShardState, meta: dict, tail: bytes) -> None:
    """Install the δ ring.

    Two payload shapes share this command:

    * fresh start — ``{"window": W}`` plus one blob: the start state,
      delta-encoded against all-invalid, installed at ring slot 0;
    * checkpoint resume — ``{"window": W, "slots": [t, ...]}`` plus a
      chained tail (:func:`~repro.core.wire.decode_chain` from the
      all-invalid block): each decoded slot lands at ``ring[t % W]``,
      oldest first, and ``baseline`` becomes the newest — exactly the
      state a mid-run worker held when the checkpoint was captured.
    """
    state.window = int(meta["window"])
    # the snapshot's narrow dtype, as in the engine's δ ring: it halves
    # the fold's memory traffic and matches the affine view's dtype
    state.ring = np.full((state.window, state.n, state.width),
                         state.invalid, dtype=state.topo.dtype)
    slots = meta.get("slots")
    if slots is None:
        decode_update(tail, state.ring[0])
        state.baseline = state.ring[0].copy()
        return
    outs = [state.ring[int(t) % state.window] for t in slots]
    decode_chain(tail, _invalid_block(state), outs)
    state.baseline = outs[-1].copy()


def _shard_ckpt(state: _ShardState, t: int, depth: int) -> Tuple[List[int],
                                                                 bytes]:
    """Capture ring slots ``t - depth + 1 .. t`` for a coordinator
    checkpoint: the chain (:func:`~repro.core.wire.encode_chain`) of
    those slots against ``baseline``.  ``baseline`` advances to slot
    ``t`` — the coordinator now provably holds it.
    """
    if state.ring is None:
        raise RemoteError("checkpoint before delta init")
    t = int(t)
    depth = max(1, min(int(depth), state.window))
    ts = list(range(t - depth + 1, t + 1))
    tail = encode_chain(state.baseline,
                        [state.ring[s % state.window] for s in ts],
                        state.carrier)
    state.baseline = state.ring[t % state.window].copy()
    return ts, tail


def _read_delta_window(state: _ShardState, head: dict, tail: bytes):
    """``(t, active counts, read-back counts, nodes, ring slots read)``
    of one :data:`~repro.core.wire.MSG_DELTA_STEPS` window, checked
    against itself and the snapshot: a tail whose length disagrees with
    the head, a node outside ``0 … n − 1``, a step whose read-back
    count is not its nodes' in-degree sum, or a read-back outside
    ``1 … min(t, W − 1)`` raises :class:`~repro.core.wire.WireFormatError`
    before any step is folded."""
    steps = np.asarray(head["steps"], dtype=np.int64).reshape(-1, 3)
    ts, k, e = steps.T
    node_dt, back_dt = (wire_dtype(name) for name in head["dtypes"])
    size = int(k.sum()) * node_dt.itemsize + int(e.sum()) * back_dt.itemsize
    if (steps[:, 1:] < 0).any() or len(tail) != size:
        raise WireFormatError(
            f"δ window tail is {len(tail)} bytes; its head names "
            f"{k.tolist()} active nodes and {e.tolist()} read-backs")
    nodes = np.frombuffer(tail, dtype=node_dt, count=int(k.sum()))
    back = np.frombuffer(tail, dtype=back_dt, count=int(e.sum()),
                         offset=nodes.nbytes).astype(np.int64)
    nodes = nodes.astype(np.intp)
    if nodes.size and nodes.max() >= state.n:
        raise WireFormatError(
            f"δ window activates node {int(nodes.max())} of {state.n}")
    ends = np.cumsum(np.concatenate(([0], state.topo.deg[nodes])))
    degrees = ends[np.cumsum(k)] - ends[np.cumsum(k) - k]
    wrong = np.flatnonzero(degrees != e)
    if wrong.size:
        s = wrong[0]
        raise WireFormatError(
            f"δ window step t={ts[s]} carries {e[s]} read-backs for "
            f"active in-degree {degrees[s]}")
    t_edge = np.repeat(ts, e)
    wrong = np.flatnonzero((back < 1)
                           | (back > np.minimum(t_edge, state.window - 1)))
    if wrong.size:
        s = wrong[0]
        raise WireFormatError(
            f"δ window step t={t_edge[s]} reads back {back[s]} steps, "
            f"outside 1 … min(t, {state.window - 1})")
    return ts, k, e, nodes, (t_edge - back) % state.window


def _shard_delta_steps(state: _ShardState, head: dict,
                       tail: bytes) -> List[bool]:
    """One window of δ steps on the local ``(W, n, width)`` ring.

    ``head["steps"]`` is ``[[t, active count, edge count]]`` for
    consecutive times; ``tail`` holds every step's active nodes
    (ascending), then every step's read-backs ``t − β`` over those
    nodes' in-edges in snapshot order, in the dtypes ``head["dtypes"]``
    names (:func:`_read_delta_window` checks them).  Each step folds
    all its activations in one call of the shared δ kernel
    (:func:`~repro.core.vectorized.delta_fold`), restricted to the
    block's columns; the window's edge layout and ring slots are
    computed once, as arrays.
    """
    if state.ring is None:
        raise RemoteError("delta steps before delta init")
    ring, W, topo = state.ring, state.window, state.topo
    ts, k, e, nodes, slot = _read_delta_window(state, head, tail)
    has, edge_flat, starts = topo.layout(nodes)
    rows = slot * state.n + topo.src[edge_flat]     # rows of the ring
    node_at = np.cumsum(k) - k
    edge_at = np.cumsum(e) - e
    has_at = np.cumsum(np.concatenate(([0], has)))
    flags: List[bool] = []
    for s, t in enumerate(ts.tolist()):
        a0, a1 = node_at[s], node_at[s] + k[s]
        e0, e1 = edge_at[s], edge_at[s] + e[s]
        step = nodes[a0:a1]
        prev, nxt = ring[(t - 1) % W], ring[t % W]
        nxt[:] = prev
        out = np.full((step.size, state.width), state.invalid,
                      dtype=ring.dtype)
        if e1 > e0:
            out[has[a0:a1]] = delta_fold(
                ring, rows[e0:e1], edge_flat[e0:e1],
                starts[has_at[a0]:has_at[a1]] - e0, topo.tables,
                topo.affine)
        own = np.nonzero((step >= state.lo) & (step < state.hi))[0]
        out[own, step[own] - state.lo] = state.trivial
        flags.append(bool((out != prev[step]).any()))
        nxt[step] = out
    return flags


def _shard_fetch(state: _ShardState, t: int) -> bytes:
    """Ship ring slot ``t`` as a delta against the last acked state."""
    if state.ring is None:
        raise RemoteError("fetch before delta init")
    slot = state.ring[int(t) % state.window]
    blob = encode_update(state.baseline, slot, state.carrier)
    state.baseline[:] = slot
    return blob


def _dispatch(state: _ShardState, msg_type: int,
              payload: bytes) -> Tuple[int, bytes]:
    """Handle one coordinator command; returns the reply frame."""
    if msg_type == MSG_LOAD:
        meta, tail = unpack_payload(payload)
        _shard_load(state, meta, tail)
        return MSG_ACK, b""
    if msg_type == MSG_SIGMA_INIT:
        _obj, blob = unpack_payload(payload)
        _shard_sigma_init(state, blob)
        return MSG_ACK, b""
    if msg_type == MSG_SIGMA_ROUND:
        obj, _tail = unpack_payload(payload)
        changed, blob = _shard_sigma_round(state, bool(obj["full"]))
        return MSG_UPDATE, pack_payload({"changed": changed}, blob)
    if msg_type == MSG_DELTA_INIT:
        obj, blob = unpack_payload(payload)
        _shard_delta_init(state, obj, blob)
        return MSG_ACK, b""
    if msg_type == MSG_DELTA_STEPS:
        obj, tail = unpack_payload(payload)
        flags = _shard_delta_steps(state, obj, tail)
        return MSG_FLAGS, pack_payload({"flags": flags})
    if msg_type == MSG_FETCH:
        obj, _tail = unpack_payload(payload)
        blob = _shard_fetch(state, obj["t"])
        return MSG_UPDATE, pack_payload({"t": obj["t"]}, blob)
    if msg_type == MSG_CKPT:
        obj, _tail = unpack_payload(payload)
        ts, tail = _shard_ckpt(state, obj["t"], obj["depth"])
        return MSG_UPDATE, pack_payload({"slots": ts}, tail)
    if msg_type == MSG_PING:
        # probation re-probe: liveness only, touches no shard state
        return MSG_ACK, b""
    raise WireFormatError(f"unknown command frame type {msg_type}")


def _try_send(fc: FrameConnection, msg_type: int, payload: bytes) -> None:
    try:
        fc.send(msg_type, payload)
    except (WireError, OSError):         # peer already gone
        pass


def _serve_connection(sock, injector=None) -> None:
    """Serve one coordinator session on an accepted socket.

    Handler exceptions are relayed as :data:`MSG_ERROR` frames (the
    worker stays usable).  A version-skewed peer gets one error frame
    before the connection drops, and so does a malformed command (a
    damaged frame, such as one that fails its checksum), whose error
    head carries ``"kind": "format"`` so the coordinator can type it;
    the server loop then goes back to ``accept``.
    ``injector`` is the worker-side chaos hook (every frame in either
    direction passes through it).
    """
    fc = FrameConnection(sock, injector=injector)
    state = _ShardState()
    try:
        while True:
            try:
                msg_type, payload = fc.recv()
            except WireVersionError as exc:
                _try_send(fc, MSG_ERROR,
                          pack_payload({"message": str(exc)}))
                return
            except WireFormatError as exc:
                _try_send(fc, MSG_ERROR, pack_payload(
                    {"message": str(exc), "kind": "format"}))
                return
            except WireError:
                return                   # peer closed
            except OSError:
                return                   # socket reset / torn down under us
            if msg_type == MSG_STOP:
                _try_send(fc, MSG_ACK, b"")
                return
            try:
                reply_type, reply_payload = _dispatch(state, msg_type,
                                                      payload)
            except (WireError, RemoteError, OSError, ValueError,
                    LookupError, TypeError, ArithmeticError) as exc:
                # expected handler failures (bad payloads, protocol
                # discipline, compute errors): relay as a typed error
                # frame instead of dying — the worker stays usable.
                _engine_log.warning(
                    "worker relaying %s to coordinator: %s",
                    type(exc).__name__, exc)
                _try_send(fc, MSG_ERROR, pack_payload(
                    {"message": f"{type(exc).__name__}: {exc}"}))
                continue
            except Exception as exc:
                # genuinely unexpected: tell the coordinator, then let
                # it propagate — a silent catch-all here masked bugs.
                _engine_log.warning(
                    "worker hit unexpected %s handling msg_type=%d: %s",
                    type(exc).__name__, msg_type, exc)
                _try_send(fc, MSG_ERROR, pack_payload(
                    {"message": f"{type(exc).__name__}: {exc}"}))
                raise
            fc.send(reply_type, reply_payload)
    finally:
        fc.close()


def serve_worker(host: str = "127.0.0.1", port: int = 0, *,
                 once: bool = False, ready_callback=None,
                 announce: bool = False, fault_plan=None) -> None:
    """Run a remote σ/δ worker: accept coordinators, one at a time.

    ``port=0`` binds an ephemeral port; ``ready_callback(host, port)``
    fires once the socket is listening (subprocess spawners use it to
    learn the port), and ``announce`` prints a parseable
    ``listening on host:port`` line for the CLI path.  ``once`` exits
    after the first coordinator session — the spawned loopback workers
    use it so a closed engine cannot leak server processes.
    ``fault_plan`` (a :class:`~repro.core.faults.FaultPlan`, dict or
    JSON string — the CLI's ``--fault-plan``) injects seeded faults
    into every frame this worker sends or receives.
    """
    plan = FaultPlan.parse(fault_plan) if fault_plan is not None else None
    srv = socket.create_server((host, port))
    bound = srv.getsockname()[1]
    if ready_callback is not None:
        ready_callback(host, bound)
    if announce:
        print(f"repro remote worker listening on {host}:{bound}", flush=True)
    try:
        while True:
            conn, _addr = srv.accept()
            injector = plan.injector("worker") if plan is not None else None
            _serve_connection(conn, injector=injector)
            if once:
                return
    finally:
        srv.close()


def _spawned_worker_main(pipe, host: str, fault_plan=None) -> None:
    """Subprocess entry point for loopback workers."""
    try:
        def ready(h, p):
            pipe.send((h, p))
            pipe.close()
        serve_worker(host, 0, once=True, ready_callback=ready,
                     fault_plan=fault_plan)
    except (OSError, WireError) as exc:  # pragma: no cover - spawn failure
        # expected startup/session failures (bind refused, peer sent
        # garbage): report failure on the pipe and exit quietly.
        _engine_log.warning("loopback worker exiting on %s: %s",
                            type(exc).__name__, exc)
        try:
            pipe.send(None)
        except (OSError, ValueError):    # parent already gone
            pass
    except Exception:                    # pragma: no cover - worker bug
        # unexpected: still unblock the parent's port wait, but let the
        # error propagate so the subprocess dies loudly (non-zero exit)
        # instead of being silently eaten.
        try:
            pipe.send(None)
        except (OSError, ValueError):
            pass
        raise


def _spawn_one_worker(ctx, host: str, timeout: float, fault_plan=None):
    """Spawn a single loopback worker; returns ``(proc, endpoint)``.

    On failure the dead subprocess is reaped here and a
    :class:`RemoteError` raised — the caller decides whether to retry.
    """
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_spawned_worker_main,
                       args=(child, host, fault_plan), daemon=True,
                       name="repro-remote-worker")
    proc.start()
    child.close()
    try:
        if not parent.poll(timeout):
            raise RemoteError(
                "loopback worker did not report its port within "
                f"{timeout}s")
        try:
            reported = parent.recv()
        except EOFError:
            raise RemoteError(
                "loopback worker died before reporting its port")
        if reported is None:
            raise RemoteError("loopback worker failed to start")
    except RemoteError:
        proc.terminate()
        _reap_workers([proc])
        raise
    finally:
        parent.close()
    return proc, (reported[0], reported[1])


def spawn_loopback_workers(count: int, host: str = "127.0.0.1",
                           timeout: float = 30.0, fault_plan=None):
    """Spawn ``count`` single-session worker subprocesses on ``host``.

    Returns ``(procs, endpoints)``.  Used by the engine's
    ``workers=k`` mode, tests and CI: real TCP, one machine.

    A worker that fails to come up (a transient bind race on the
    ephemeral port, a slow fork under load) is retried **once** with a
    fresh process before the whole build is declared failed — one flaky
    ephemeral port must not cost an engine build.
    """
    ctx = _mp_context()
    if ctx is None:
        raise UnsupportedAlgebraError(
            "remote engine cannot spawn loopback workers: no "
            "multiprocessing start method on this platform; pass "
            "explicit endpoints instead")
    procs = []
    endpoints = []
    try:
        for _ in range(count):
            try:
                proc, endpoint = _spawn_one_worker(ctx, host, timeout,
                                                   fault_plan)
            except RemoteError as exc:
                _engine_log.warning(
                    "loopback worker spawn failed (%s); retrying once "
                    "with a fresh ephemeral port", exc)
                proc, endpoint = _spawn_one_worker(ctx, host, timeout,
                                                   fault_plan)
            procs.append(proc)
            endpoints.append(endpoint)
    except Exception as exc:
        # reap every already-spawned worker deterministically before
        # re-raising — a failed spawn must not leak subprocesses.
        _engine_log.warning(
            "loopback spawn failed (%s: %s); reaping %d spawned workers",
            type(exc).__name__, exc, len(procs))
        for proc in procs:
            proc.terminate()
        _reap_workers(procs)
        raise
    return procs, endpoints


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _RemoteResources:
    """Sockets and spawned worker processes, detached from the engine
    so a ``weakref.finalize`` can release them (idempotently, also on
    interpreter shutdown)."""

    def __init__(self):
        self.conns: List[FrameConnection] = []
        self.procs: List = []

    def close(self) -> None:
        for fc in self.conns:
            try:
                fc.send(MSG_STOP)
            except (WireError, OSError):
                pass
            fc.close()
        _reap_workers(self.procs)
        self.conns = []
        self.procs = []


def _parse_endpoint(spec) -> Tuple[str, int]:
    """``"host:port"`` strings or ``(host, port)`` pairs."""
    if isinstance(spec, str):
        host, sep, port = spec.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"endpoint {spec!r} is not of the form 'host:port'")
        return host, int(port)
    host, port = spec
    return str(host), int(port)


class RemoteVectorizedEngine(VectorizedEngine):
    """Column-sharded σ/δ over TCP workers (coordinator side).

    Extends :class:`~repro.core.vectorized.VectorizedEngine`: the
    encoding, codecs, the σ loop and the coordinator's topology
    snapshot (used for δ σ-stability probes on fetched candidates) are
    inherited; this class adds the wire protocol, the σ round over the
    shards (:meth:`_advance`), a full-matrix mirror kept in sync via
    delta-encoded updates, and per-run :class:`~repro.core.wire.WireStats`.

    Connect with explicit ``endpoints`` (``"host:port"`` strings or
    ``(host, port)`` pairs, one shard each) or ``workers=k`` to spawn
    ``k`` loopback subprocess workers.  Connections open lazily on the
    first σ/δ entry, carry every later snapshot (republished when the
    topology moves), are torn down by a failure and reopened by the
    next call, and close for good via :meth:`close` (idempotent,
    context manager, ``weakref.finalize`` backstop).
    """

    #: honest advertisement for the resolver: finite algebras only, an
    #: explicitly configured transport (no endpoints → machine-readable
    #: skip, never an implicit network dependency) and a minimum
    #: problem size.
    capabilities = register_engine(Capabilities(
        rung="remote",
        requires_finite_algebra=True,
        requires_remote_endpoints=True,
        min_n=REMOTE_MIN_N,
        min_workers=2,
        supports_unbounded_schedules=False,
        supports_kept_history=False,
    ))

    def __init__(self, network: Network,
                 endpoints: Optional[Sequence] = None,
                 workers: Optional[int] = None,
                 socket_timeout: Optional[float] = None,
                 strict: bool = False,
                 fault_plan=None):
        self._res = _RemoteResources()
        self._finalizer = weakref.finalize(self, self._res.close)
        super().__init__(network)        # raises for non-finite algebras
        if endpoints:
            self._endpoints = [_parse_endpoint(e) for e in endpoints]
            self._spawn = 0
            shards = min(len(self._endpoints), network.n)
            self._endpoints = self._endpoints[:shards]
        elif workers:
            self._spawn = min(int(workers), network.n)
            self._endpoints = []
            shards = self._spawn
        else:
            raise ValueError(
                "remote engine needs a transport: pass endpoints=[...] "
                "or workers=<count> for loopback subprocesses")
        if shards < 2:
            raise UnsupportedAlgebraError(
                f"remote engine needs >= 2 shards (resolved {shards}); "
                "use the vectorized engine instead")
        self._timeout = REMOTE_TIMEOUT if socket_timeout is None \
            else float(socket_timeout)
        self._blocks = _split_columns(network.n, shards)
        self.workers = shards
        #: the snapshot the workers hold (republished when it moves)
        self._published: Optional[TopologySnapshot] = None
        #: supervision: ``strict=True`` surfaces every worker fault as
        #: the typed error immediately (no healing); otherwise up to
        #: :data:`REMOTE_MAX_RETRIES` recoveries per run (``degraded``).
        self._strict = bool(strict)
        self._retries_left = 0           # armed by every run
        self._fresh_stats = False
        self._plan = FaultPlan.parse(fault_plan) \
            if fault_plan is not None else None
        #: the endpoint working set (shrinks when healing re-shards)
        self._active_endpoints = list(self._endpoints)
        self._shard_endpoints: List[Tuple[str, int]] = []
        #: probation ledger: endpoint -> {"failures": k, "next_probe": t}
        #: (monotonic deadline for the next MSG_PING re-probe)
        self._parked: dict = {}
        #: recovery chain (:class:`~repro.core.capabilities.DegradedEvent`)
        #: and wire volume of the most recent run: σ, δ or a whole grid
        self.degraded: List[DegradedEvent] = []
        self.wire_stats = WireStats()
        #: IPC amortisation achieved by the most recent δ run
        self.delta_ipc_commands = 0
        self.delta_ipc_steps = 0
        self._acked = 0                  # fully collected barriers (run)
        #: δ mid-run checkpointing (every :data:`DELTA_CKPT_EVERY`
        #: windows): the most recent trial's save/resume counters
        self.delta_ckpt_saves = 0
        self.delta_ckpt_resumes = 0
        self.delta_resumed_from = 0      # step the last resume started past
        self._delta_ckpt = None          # {"t", "unchanged", "slots"}

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release the engine: stop the workers and drop every
        connection for good (idempotent; a closed engine refuses to
        run)."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        """True once the owner released the engine (a failure only
        tears the pool down)."""
        return not self._finalizer.alive

    def __enter__(self) -> "RemoteVectorizedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire plumbing ---------------------------------------------------

    def _bump(self, commands: int = 0, rounds: int = 0,
              update: int = 0, naive: int = 0) -> None:
        stats = self.wire_stats
        stats.commands += commands
        stats.rounds += rounds
        stats.update_bytes += update
        stats.naive_bytes += naive

    def _sync_bytes(self) -> None:
        """Fold the per-connection byte counters into the stats."""
        sent = sum(fc.bytes_sent for fc in self._res.conns)
        received = sum(fc.bytes_received for fc in self._res.conns)
        delta_sent = sent - self._bytes_base[0]
        delta_received = received - self._bytes_base[1]
        self._bytes_base = (sent, received)
        self.wire_stats.bytes_sent += delta_sent
        self.wire_stats.bytes_received += delta_received

    def _run_reset(self) -> None:
        """Arm a run (a σ run, or a whole δ grid): fresh retry budget,
        empty recovery chain, and a deferred wire-stats reset (the
        *initial* pool build stays out of per-run stats; heal rebuilds
        land in them — retry traffic is real traffic).  Parked
        endpoints whose probation expired are re-probed here, so every
        run starts on the widest healthy fleet."""
        self._retries_left = 0 if self._strict else REMOTE_MAX_RETRIES
        self.degraded = []
        self.wire_stats = WireStats()    # a run that ships nothing
        self._fresh_stats = True
        self._maybe_rejoin()

    def _attempt_pool(self) -> None:
        """(Re)establish the pool inside the supervised retry loop."""
        self._ensure_pool()
        if self._fresh_stats:
            self.wire_stats = WireStats()
            self._acked = 0
            self._fresh_stats = False

    def _ensure_pool(self, allow_partial: bool = False) -> None:
        """Build the pool (first use, or after a teardown) or republish
        a stale snapshot over the live connections.  A connection
        failure tears the pool down and raises :class:`RemoteError`."""
        if self.closed:
            raise RuntimeError("engine is closed; build a new one")
        if self._res.conns:
            if self._published is not self._topo:
                self._load()
            return
        if self._spawn:
            procs, endpoints = spawn_loopback_workers(self._spawn)
            self._res.procs = procs
            allow_partial = False
        else:
            # iterate the ORIGINAL endpoint order minus the probation
            # ledger: when every parked endpoint has rejoined, the
            # shards land back on the original column layout.
            endpoints = [e for e in self._endpoints
                         if tuple(e) not in self._parked]
        conns = self._res.conns          # a teardown closes what is open
        reachable: List[Tuple[str, int]] = []
        for host, port in endpoints:
            try:
                sock = socket.create_connection((host, port),
                                                timeout=self._timeout)
            except OSError as exc:
                if allow_partial:
                    self._park((host, port), len(conns),
                               f"{type(exc).__name__}: {exc}")
                    continue
                self._res.close()
                raise RemoteError(
                    f"cannot connect to remote worker {host}:{port}: "
                    f"{exc}") from exc
            sock.settimeout(self._timeout)
            injector = self._plan.injector("coordinator", len(conns)) \
                if self._plan is not None else None
            conns.append(FrameConnection(sock, injector=injector))
            reachable.append((host, port))
        if not conns:
            self._res.close()
            raise RemoteError(
                "no remote workers reachable after loss: every endpoint "
                f"in {endpoints or list(self._parked)} refused the "
                "reconnect or is parked on probation")
        self._shard_endpoints = reachable
        if not self._spawn:
            self._active_endpoints = reachable
        self._blocks = _split_columns(self._n, len(conns))
        self.workers = len(conns)
        self._bytes_base = (0, 0)
        self._load()

    def _load(self) -> None:
        """Ship every shard the current snapshot and its column block
        (:data:`~repro.core.wire.MSG_LOAD`) and collect the acks: the
        first build, every heal rebuild and every republish after a
        topology change."""
        meta, tables = self._topo.export()
        tables_blob = np.ascontiguousarray(tables, dtype="<i4").tobytes()
        base = dict(meta, n=self._n, trivial=self.trivial_code,
                    invalid=self.invalid_code, carrier=self.encoding.size)
        for idx, (lo, hi) in enumerate(self._blocks):
            self._send(idx, MSG_LOAD,
                       pack_payload(dict(base, block=[lo, hi]), tables_blob))
        self._collect_acks()
        self._published = self._topo

    def _send(self, idx: int, msg_type: int, payload: bytes = b"") -> None:
        fc = self._res.conns[idx]
        try:
            fc.send(msg_type, payload)
        except (WireClosedError, OSError) as exc:
            raise _ShardFault(idx, exc) from exc
        self._bump(commands=1)
        self._sync_bytes()

    def _broadcast(self, msg_type: int, head: dict,
                   tail: bytes = b"") -> None:
        """Send every shard the same command (a JSON head and a binary
        tail)."""
        payload = pack_payload(head, tail)
        for idx in range(len(self._blocks)):
            self._send(idx, msg_type, payload)

    def _recv(self, idx: int) -> Tuple[int, bytes]:
        fc = self._res.conns[idx]
        try:
            msg_type, payload = fc.recv()
        except WireVersionError:
            # version skew is never a transient fault: healing would
            # reconnect to the same skewed peer forever
            self._res.close()
            raise
        except WireFormatError as exc:
            raise _ShardFault(idx, exc, kind="format") from exc
        except (WireClosedError, OSError) as exc:
            raise _ShardFault(idx, exc) from exc
        self._sync_bytes()
        if msg_type == MSG_ERROR:
            try:
                obj, _ = unpack_payload(payload)
                message = obj.get("message", "unknown worker error")
                kind = obj.get("kind")
            except WireError:
                message, kind = "undecodable worker error", None
            if kind == "format":
                # the command arrived damaged at the worker
                exc = WireFormatError(
                    f"remote worker {idx} received a damaged command: "
                    f"{message}")
                raise _ShardFault(idx, exc, kind="format")
            raise _ShardFault(idx, RemoteError(message),
                              kind="worker-error", message=message)
        return msg_type, payload

    def _expect(self, idx: int, expected: int):
        msg_type, payload = self._recv(idx)
        if msg_type != expected:
            exc = WireFormatError(
                f"remote worker {idx} replied frame type {msg_type}, "
                f"expected {expected}")
            raise _ShardFault(idx, exc, kind="protocol")
        try:
            return unpack_payload(payload) if payload else ({}, b"")
        except WireError as exc:
            raise _ShardFault(idx, exc, kind="format") from exc

    def _barrier(self) -> None:
        """One fully collected broadcast/collect cycle: bump the round
        counters and tell the fault injectors (rules key on rounds)."""
        self._bump(rounds=1)
        self._acked += 1
        if self._plan is not None:
            for fc in self._res.conns:
                if fc.injector is not None:
                    fc.injector.round = self._acked

    def _collect_acks(self) -> None:
        for idx in range(len(self._res.conns)):
            self._expect(idx, MSG_ACK)
        self._barrier()

    # -- state transfer --------------------------------------------------

    def _install(self, msg_type: int, head: dict, states,
                 chained: bool = False) -> None:
        """Ship every shard its column block of each full code matrix in
        ``states``, delta-encoded against the all-invalid block (one
        update blob, or with ``chained`` the checkpoint chain of
        :func:`~repro.core.wire.encode_chain`), count the update bytes,
        and collect the acks."""
        n = self._n
        for idx, (lo, hi) in enumerate(self._blocks):
            base = np.full((n, hi - lo), self.invalid_code, dtype=_DTYPE)
            blocks = [S[:, lo:hi] for S in states]
            blob = (encode_chain(base, blocks, self.encoding.size)
                    if chained else
                    encode_update(base, blocks[0], self.encoding.size))
            self._bump(update=len(blob),
                       naive=naive_update_bytes(n, hi - lo) * len(blocks))
            self._send(idx, msg_type, pack_payload(head, blob))
        self._collect_acks()

    def _collect_updates(self, M: "np.ndarray", slots=()) -> None:
        """Collect one :data:`~repro.core.wire.MSG_UPDATE` per shard and
        decode its block into the mirror ``M`` — or, for a checkpoint,
        its chain into the full matrices of the ``(t, matrix)`` pairs in
        ``slots``, starting from ``M`` (which stays as it was) — and
        count the update bytes.  A reply that does not decode is a
        ``format`` fault on its shard: it may half-apply before
        detection, but the healed round reruns on a fresh copy of its
        input."""
        n = self._n
        ts = [t for t, _S in slots]
        for idx, (lo, hi) in enumerate(self._blocks):
            obj, tail = self._expect(idx, MSG_UPDATE)
            try:
                if not slots:
                    decode_update(tail, M[:, lo:hi])
                elif obj["slots"] != ts:
                    raise WireFormatError(
                        f"shard {idx} checkpointed slots {obj['slots']}, "
                        f"expected {ts}")
                else:
                    decode_chain(tail, M[:, lo:hi],
                                 [S[:, lo:hi] for _t, S in slots])
            except (WireError, LookupError, TypeError, ValueError) as exc:
                raise _ShardFault(idx, exc, kind="format") from exc
            self._bump(update=len(tail), naive=(len(ts) or 1)
                       * naive_update_bytes(n, hi - lo))
        self._barrier()

    # -- supervision -----------------------------------------------------

    def _degraded_event(self, code: str, shard: Optional[int],
                        detail: str, heal_ms: float) -> None:
        event = DegradedEvent(code=code, shard=shard, detail=detail,
                              heal_ms=heal_ms)
        self.degraded.append(event)
        _engine_log.warning("remote degraded [%s] shard=%s: %s "
                            "(healed in %.1fms)", code, shard, detail,
                            heal_ms)

    def _heal(self, fault: _ShardFault) -> None:
        """Recover from a shard fault or surface the typed error.

        Strict engines and exhausted retry budgets raise exactly what
        the pre-supervision engine raised.  Otherwise: tear the pool
        down, back off (exponential + jitter), rebuild — respawning
        loopback workers or re-sharding onto surviving endpoints — and
        return so the caller resumes from its last barrier-consistent
        state.  Faults *during* the rebuild consume further retries, so
        a permanently sick fleet still terminates in bounded time.
        """
        while True:
            if self._strict or self._retries_left <= 0:
                self._raise_terminal(fault)
            self._retries_left -= 1
            attempt = REMOTE_MAX_RETRIES - self._retries_left
            _engine_log.warning(
                "remote shard %s %s; recovery attempt %d/%d",
                fault.idx, fault.describe(), attempt, REMOTE_MAX_RETRIES)
            self._res.close()            # sever all conns, reap dead procs
            delay = min(RETRY_BACKOFF_BASE * (2 ** (attempt - 1)),
                        RETRY_BACKOFF_CAP)
            time.sleep(delay * (0.5 + random.random() * 0.5))
            t0 = perf_counter()
            try:
                self._rebuild_pool(fault, t0)
                return
            except _ShardFault as again:
                fault = again
            except RemoteError:
                # the fleet is gone (respawn failed / nothing reachable):
                # surface the ORIGINAL fault — it names the root cause
                self._raise_terminal(fault)

    # -- endpoint probation / rejoin -------------------------------------

    def _park(self, endpoint: Tuple[str, int], idx: Optional[int],
              why: str) -> None:
        """Put a dead endpoint on probation (exponential re-probe
        backoff).  The ``endpoint-probation`` event fires on the FIRST
        park only; repeat failures just push the probe deadline out."""
        endpoint = tuple(endpoint)
        info = self._parked.get(endpoint)
        first = info is None
        failures = 1 if first else info["failures"] + 1
        delay = min(PROBATION_BASE * (2 ** (failures - 1)), PROBATION_CAP)
        self._parked[endpoint] = {
            "failures": failures,
            "next_probe": time.monotonic() + delay,
        }
        if first:
            self._degraded_event(
                "endpoint-probation", idx,
                f"endpoint {endpoint[0]}:{endpoint[1]} parked on "
                f"probation after {why}; next probe in {delay:.2f}s",
                heal_ms=0.0)
        else:
            _engine_log.info(
                "endpoint %s:%s probe failed (%d failure(s)); next "
                "probe in %.2fs", endpoint[0], endpoint[1], failures,
                delay)

    def _probe_endpoint(self, endpoint: Tuple[str, int]) -> bool:
        """One lightweight hello on a fresh socket: connect, MSG_PING,
        expect MSG_ACK, polite MSG_STOP.  Never raises."""
        host, port = endpoint
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(self._timeout, 5.0))
        except OSError:
            return False
        fc = FrameConnection(sock)
        try:
            fc.send(MSG_PING, b"")
            msg_type, _payload = fc.recv()
            if msg_type != MSG_ACK:
                return False
            try:
                fc.send(MSG_STOP, b"")
                fc.recv()
            except (WireError, OSError):
                pass                     # the ping already proved liveness
            return True
        except (WireError, OSError):
            return False
        finally:
            fc.close()

    def _maybe_rejoin(self) -> None:
        """Probe parked endpoints whose probation expired; re-admit the
        live ones and force a re-shard so they get columns back."""
        if self._spawn or not self._parked:
            return
        now = time.monotonic()
        due = [ep for ep, info in self._parked.items()
               if info["next_probe"] <= now]
        rejoined = False
        for endpoint in due:
            if self._probe_endpoint(endpoint):
                del self._parked[endpoint]
                rejoined = True
                self._degraded_event(
                    "endpoint-rejoined", None,
                    f"endpoint {endpoint[0]}:{endpoint[1]} answered its "
                    "probation probe; re-admitted (columns re-shard "
                    "towards the original layout on the next pool build)",
                    heal_ms=0.0)
            else:
                self._park(endpoint, None, "a failed probation probe")
        if rejoined:
            self._active_endpoints = [
                e for e in self._endpoints if tuple(e) not in self._parked]
            if self._res.conns:
                # drop the live pool: the next _ensure_pool re-shards
                # over the re-admitted endpoint set
                self._res.close()

    def _rebuild_pool(self, fault: _ShardFault, t0: float) -> None:
        if self._spawn:
            self._ensure_pool()
            self._degraded_event(
                "worker-respawned", fault.idx,
                f"loopback worker pool respawned after {fault.describe()}; "
                "resumed from the last acked round",
                heal_ms=(perf_counter() - t0) * 1000)
            return
        self._maybe_rejoin()
        before = len(self._active_endpoints)
        self._ensure_pool(allow_partial=True)
        after = len(self._active_endpoints)
        if after < before:
            self._degraded_event(
                "reshard-after-loss", fault.idx,
                f"{before - after} endpoint(s) unreachable after "
                f"{fault.describe()}; {self._n} columns re-sharded onto "
                f"{after} surviving worker(s)",
                heal_ms=(perf_counter() - t0) * 1000)
        else:
            self._degraded_event(
                "worker-reconnected", fault.idx,
                f"endpoint reconnected after {fault.describe()}; "
                "resumed from the last acked round",
                heal_ms=(perf_counter() - t0) * 1000)

    def _raise_terminal(self, fault: _ShardFault) -> None:
        """Tear the pool down (the next call builds a new one) and
        surface a fault as the pre-supervision typed error."""
        idx, exc = fault.idx, fault.exc
        endpoint = self._shard_endpoints[idx] \
            if idx is not None and idx < len(self._shard_endpoints) else None
        acked = self._acked
        self._res.close()
        if fault.kind in ("format", "protocol"):
            # corrupt streams and protocol-discipline violations keep
            # their typed wire errors
            raise exc
        where = endpoint and f"{endpoint[0]}:{endpoint[1]}"
        if fault.kind == "worker-error":
            raise RemoteWorkerError(
                f"remote worker {idx} ({where}) failed: {fault.message}; "
                f"last fully acked protocol round: {acked}",
                shard_id=idx, endpoint=endpoint, last_acked_round=acked)
        if isinstance(exc, TimeoutError):
            detail = (f"did not reply within {self._timeout}s "
                      "(socket timeout)")
        else:
            detail = f"connection failed: {exc}"
        raise RemoteWorkerError(
            f"remote worker {idx} ({where}) "
            f"{detail}; last fully acked protocol round: {acked}",
            shard_id=idx, endpoint=endpoint,
            last_acked_round=acked) from exc

    # -- σ ---------------------------------------------------------------

    def _advance(self, C: "np.ndarray", dirty: Optional["np.ndarray"]):
        """One σ round over the shards: ``(σ(C) in a fresh array,
        changed columns)``, the step
        :func:`~repro.core.vectorized.iterate_sigma_vectorized` drives.

        ``dirty=None`` starts a run: a fresh retry budget and per-run
        wire stats, ``C`` installed on the shards, a full round.  Later
        rounds run on the workers' block-local dirty sets (``C`` is
        the array the previous round returned, which the shards hold).
        The shards' replies are decoded into a copy of ``C``; the
        changed columns are the ones that differ from ``C``.

        Supervised: a shard fault heals the pool (respawn / reconnect /
        re-shard), reinstalls this round's input ``C`` — untouched,
        since replies are applied to a copy — and reruns the round full
        (worker dirty sets died with the pool), which recomputes clean
        columns to the same values: bit-identical to a fault-free round.
        """
        full = dirty is None
        if full:
            self._run_reset()
        while True:
            try:
                self._attempt_pool()
                if full:
                    self._install(MSG_SIGMA_INIT, {}, [C])
                self._broadcast(MSG_SIGMA_ROUND, {"full": full})
                M = C.copy()
                self._collect_updates(M)
                return M, np.nonzero((M != C).any(axis=0))[0]
            except _ShardFault as fault:
                self._heal(fault)
                full = True

    def _certify(self, state: RoutingState, C: "np.ndarray") -> None:
        """Keep no certificate, so every σ run here seeds cold: a round
        with ``dirty`` given runs on the matrix the shards computed
        last, which a warm seed round (computed here) would not be."""

    # -- δ ---------------------------------------------------------------

    def _capture_delta_ckpt(self, M: "np.ndarray", t_bar: int,
                            read_window: int, unchanged: int) -> None:
        """Pull a δ checkpoint at the window barrier ending at ``t_bar``.

        Each worker ships the ring tail a resumed run could still read
        (``depth`` slots up to ``t_bar``), chained delta blobs starting
        from its acked baseline; the coordinator stores the decoded
        slots as full matrices (re-shardable) and only commits the new
        checkpoint once EVERY shard delivered — a fault mid-capture
        leaves the previous checkpoint intact.  Worker baselines advance
        to slot ``t_bar``, and the mirror follows.
        """
        depth = min(read_window, t_bar + 1)
        self._broadcast(MSG_CKPT, {"t": int(t_bar), "depth": int(depth)})
        n = self._n
        slots = [(t, np.empty((n, n), dtype=_DTYPE))
                 for t in range(t_bar - depth + 1, t_bar + 1)]
        self._collect_updates(M, slots)
        # the workers' baselines moved to slot t_bar; mirror them
        M[:] = slots[-1][1]
        self._delta_ckpt = {"t": int(t_bar), "unchanged": int(unchanged),
                            "slots": slots}
        self.delta_ckpt_saves += 1

    # -- the δ loop's stacks and hooks

    def _stack_width(self, windows) -> int:
        """The workers hold one ring: a stack is one trial."""
        return 1

    def _delta_stack(self, *stack):
        """One trial, supervised, with a fresh retry budget.  Every
        :data:`DELTA_CKPT_EVERY` windows it captures a checkpoint (the
        ring tail each worker needs to continue, via
        :data:`~repro.core.wire.MSG_CKPT`); a shard fault heals the pool
        and resumes from it, or from step 1 when there is none — so a
        heal replays O(window) steps, and schedules are pure functions,
        so the resumed run is bit-identical to the fault-free one."""
        self._retries_left = 0 if self._strict else REMOTE_MAX_RETRIES
        self._delta_ckpt = None
        self.delta_ckpt_saves = self.delta_ckpt_resumes = 0
        self.delta_resumed_from = 0
        while True:
            try:
                return super()._delta_stack(*stack)
            except _ShardFault as fault:
                self._heal(fault)

    def _delta_begin(self, plan, starts):
        """Start a run: the pool, then worker rings of the window plus
        the trial's read window, holding the start at slot 0 or — when a
        heal resumes the run — the last checkpoint's ring tail (full
        ``(n, n)`` slots, so any column layout re-encodes its blocks)."""
        self._attempt_pool()
        W = DELTA_WINDOW + int(plan.windows[0])
        ckpt = self._delta_ckpt
        if ckpt is None:
            mirror = starts[0].copy()
            self._install(MSG_DELTA_INIT, {"window": W}, [mirror])
            t, unchanged = 1, 0
        else:
            slot_ts = [t for t, _S in ckpt["slots"]]
            self._install(MSG_DELTA_INIT, {"window": W, "slots": slot_ts},
                          [S for _t, S in ckpt["slots"]], chained=True)
            mirror = ckpt["slots"][-1][1].copy()
            t, unchanged = ckpt["t"] + 1, ckpt["unchanged"]
            self.delta_ckpt_resumes += 1
            self.delta_resumed_from = ckpt["t"]
            _engine_log.info(
                "δ resume from checkpoint: t=%d (%d ring slot(s) "
                "re-installed; replay skipped %d step(s))",
                ckpt["t"], len(slot_ts), ckpt["t"])
        self.delta_ipc_commands = 0
        self.delta_ipc_steps = 0
        return {"plan": plan, "mirror": mirror, "W": W, "shipped": 0}, \
            t, unchanged

    def _delta_window(self, run, t: int, count: int, live, unchanged,
                      sigma_ok, const_ok):
        """One :data:`~repro.core.wire.MSG_DELTA_STEPS` command of at
        most ``count`` steps from ``t``, yielding each step's changed
        flag.  The steps come from the planner the in-process rungs
        slice their windows from (``_DeltaPlan.wire`` in
        :mod:`repro.core.vectorized`): the command's head
        is each step's ``[t, active count, edge count]`` and the names of
        the tail's two dtypes; its tail is every step's active nodes,
        then every step's read-backs ``t − β``, each in the narrowest
        dtype that holds ``n − 1`` or the ring window
        (:func:`~repro.core.wire.carrier_dtype`).  The window is cut
        before the first step that reads outside the ring (the loop
        raises only if it gets there); a reply that is not one boolean
        per step is a ``format`` fault.  Once the loop has drawn every
        flag, every :data:`DELTA_CKPT_EVERY`-th whole window ends in a
        checkpoint.  No row is certified, so the loop probes the whole
        fetched state.
        """
        plan = run["plan"]
        p = plan.wire(t, min(DELTA_WINDOW, count))
        ts = list(range(t, t + p.steps))
        edges = np.diff(p.edge_at)
        back = np.repeat(np.asarray(ts), edges) - p.times
        node_dt = carrier_dtype(self._n)
        back_dt = carrier_dtype(run["W"] + 1)
        self._broadcast(MSG_DELTA_STEPS, {
            "steps": [[s, a, e] for s, a, e in zip(
                ts, np.diff(p.node_at).tolist(), edges.tolist())],
            "dtypes": [node_dt.str, back_dt.str],
        }, p.nodes.astype(node_dt).tobytes() + back.astype(back_dt).tobytes())
        self.delta_ipc_commands += 1
        self.delta_ipc_steps += len(ts)
        changed = np.zeros((len(ts), 1), dtype=bool)
        for idx in range(len(self._blocks)):
            obj, _tail = self._expect(idx, MSG_FLAGS)
            try:
                flags = obj["flags"]
                if len(flags) != len(ts) or \
                        not all(isinstance(f, bool) for f in flags):
                    raise WireFormatError(
                        f"shard {idx} replied {flags!r:.80} for a "
                        f"{len(ts)}-step window, not one flag per step")
            except (WireError, LookupError, TypeError) as exc:
                raise _ShardFault(idx, exc, kind="format") from exc
            changed[:, 0] |= flags
        self._barrier()
        yield from changed
        run["shipped"] += 1
        if p.stale is None and DELTA_CKPT_EVERY > 0 \
                and self._retries_left > 0 \
                and run["shipped"] % DELTA_CKPT_EVERY == 0:
            self._capture_delta_ckpt(run["mirror"], ts[-1],
                                     int(plan.windows[0]),
                                     int(unchanged[0]))

    def _delta_state(self, run, b: int, t: int) -> "np.ndarray":
        """Fetch ring slot ``t`` into the mirror (delta-encoded against
        the last fetch)."""
        self._broadcast(MSG_FETCH, {"t": int(t)})
        self._collect_updates(run["mirror"])
        return run["mirror"]

    def delta_grid(self, trials, max_steps: int = 2_000,
                   stability_window: Optional[int] = None
                   ) -> List[AsyncResult]:
        """δ over the wire for every trial of a grid, as one run:
        ``wire_stats`` and ``degraded`` cover the whole grid, and each
        trial (:meth:`_delta_stack`) is supervised on its own.  The
        vectorized rung's δ loop on this rung's hooks, with or without a
        declared staleness bound (the workers' rings follow the read
        window), so every result matches the serial engines bit for
        bit."""
        self._run_reset()
        self.delta_ipc_commands = self.delta_ipc_steps = 0
        return super().delta_grid(trials, max_steps, stability_window)

    def delta(self, schedule: Schedule, start: RoutingState,
              max_steps: int = 2_000,
              stability_window: Optional[int] = None) -> AsyncResult:
        """One δ run over the wire: the grid of one trial."""
        return self.delta_grid([(schedule, start)], max_steps,
                               stability_window)[0]


# ----------------------------------------------------------------------
# Driver (AsyncResult compatible)
# ----------------------------------------------------------------------


def delta_run_remote(network: Network, schedule: Schedule,
                     start: RoutingState, max_steps: int = 2_000,
                     stability_window: Optional[int] = None, *,
                     engine: RemoteVectorizedEngine) -> AsyncResult:
    """The remote rung's δ run on ``engine`` (an :class:`AsyncResult`):
    one supervised :meth:`RemoteVectorizedEngine.delta`, on the workers
    whether or not the schedule declares a staleness bound."""
    return engine.delta(schedule, start, max_steps=max_steps,
                        stability_window=stability_window)
