"""Remote-rung specifics: the wire codec, framing discipline, loopback
bit-identity, and deterministic failure modes.

The cross-engine observational contract lives in the shared oracle
(``test_engine_equivalence.py``, where the remote session is one more
column).  This module covers what is unique to computing σ/δ over TCP:

* the frame layout — magic/version/type/length headers, torn-frame and
  version-skew rejection (``docs/wire.md`` is the normative reference);
* the delta-encoded, quantized column-update codec: exact round trips
  (including a hypothesis fuzz over carrier sizes and shapes), loud
  failure on truncated or trailing bytes, and the compression
  accounting the benchmarks gate on;
* loopback bit-identity: 2 real TCP worker subprocesses must reproduce
  the vectorized engine's σ trajectories and δ convergence decisions
  bit for bit;
* failure surfaces: a killed worker raises a typed
  :class:`~repro.core.remote.RemoteWorkerError` carrying the shard id
  and last acked protocol round — never a hang — silent workers trip
  the configurable coordinator socket timeout, and a failure tears the
  pool down so the next call on the same engine builds a new one;
* capability negotiation: no transport / too few shards / too small a
  problem produce the documented machine-readable skip codes;
* topology mutation: the engine republishes its snapshot over the live
  connections (same workers, no MSG_STOP), bit-identical to naive;
* the CLI ``worker`` subcommand announces a parseable endpoint.
"""

import hashlib
import multiprocessing
import random
import re
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.algebras import HopCountAlgebra, ShortestPathsAlgebra
from repro.core import (
    DELTA_WINDOW,
    AdversarialStaleSchedule,
    FixedDelaySchedule,
    Network,
    RandomSchedule,
    RemoteError,
    RemoteVectorizedEngine,
    RemoteWorkerError,
    RoundRobinSchedule,
    RoutingState,
    SynchronousSchedule,
    UnsupportedAlgebraError,
    UnsupportedEngineError,
    WIRE_VERSION,
    WireClosedError,
    WireFormatError,
    WireVersionError,
    delta_run_remote,
    random_state,
    resolve_engine,
    serve_worker,
)
from repro.core import remote as remote_mod
from repro.core.parallel import _split_columns
from repro.core.remote import (
    REMOTE_MIN_N,
    _reap_workers,
    spawn_loopback_workers,
)
from repro.core.vectorized import (
    VectorizedEngine,
    iterate_sigma_vectorized,
)
from repro.core.wire import (
    MAGIC,
    MSG_ACK,
    MSG_ERROR,
    MSG_LOAD,
    MSG_PING,
    MSG_SIGMA_ROUND,
    MSG_STOP,
    FrameConnection,
    WireStats,
    _HEADER,
    carrier_dtype,
    decode_frame_bytes,
    decode_update,
    encode_frame,
    encode_update,
    naive_update_bytes,
    pack_payload,
    unpack_payload,
)
from repro.session import EngineSpec, RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory


def _net(n=9, seed=1, bound=16):
    alg = HopCountAlgebra(bound)
    return erdos_renyi(alg, n, 0.4, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


def _vectorized_delta(net, sched, start, max_steps):
    """The in-process reference run (the vectorized rung's δ)."""
    with RoutingSession(net, EngineSpec("vectorized")) as s:
        return s.delta(sched, start, max_steps=max_steps).result


def _schedules(n, seed=0):
    return [
        SynchronousSchedule(n),
        RoundRobinSchedule(n),
        FixedDelaySchedule(n, delay=2),
        RandomSchedule(n, seed=seed + 5, max_delay=3),
    ]


# ----------------------------------------------------------------------
# 1. Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_roundtrip_and_remainder(self):
        a = encode_frame(3, b"abc")
        b = encode_frame(7, b"")
        msg, payload, rest = decode_frame_bytes(a + b)
        assert (msg, payload) == (3, b"abc")
        msg2, payload2, rest2 = decode_frame_bytes(rest)
        assert (msg2, payload2, rest2) == (7, b"", b"")

    def test_every_torn_prefix_rejected(self):
        frame = encode_frame(5, b"payload-bytes")
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_frame_bytes(frame[:cut])

    def test_bad_magic_rejected(self):
        frame = _HEADER.pack(b"NOPE", WIRE_VERSION, 1, 0)
        with pytest.raises(WireFormatError):
            decode_frame_bytes(frame)

    def test_version_skew_rejected(self):
        frame = _HEADER.pack(MAGIC, WIRE_VERSION + 1, 1, 0)
        with pytest.raises(WireVersionError):
            decode_frame_bytes(frame)

    def test_oversized_payload_declaration_rejected(self):
        frame = _HEADER.pack(MAGIC, WIRE_VERSION, 1, (1 << 30) + 1)
        with pytest.raises(WireFormatError):
            decode_frame_bytes(frame)

    def test_payload_head_tail_roundtrip(self):
        obj, tail = unpack_payload(
            pack_payload({"k": [1, 2], "s": "x"}, b"\x00\xff raw"))
        assert obj == {"k": [1, 2], "s": "x"}
        assert tail == b"\x00\xff raw"

    def test_truncated_payload_rejected(self):
        blob = pack_payload({"key": "value"}, b"tail")
        with pytest.raises(WireFormatError):
            unpack_payload(blob[:3])
        with pytest.raises(WireFormatError):
            unpack_payload(blob[:6])
        with pytest.raises(WireFormatError):
            unpack_payload(struct.pack("!I", 4) + b"{bad")


# ----------------------------------------------------------------------
# 2. The column-update codec
# ----------------------------------------------------------------------


class TestUpdateCodec:
    def test_carrier_dtype_quantization(self):
        assert carrier_dtype(16) == np.dtype("<u1")
        assert carrier_dtype(256) == np.dtype("<u1")
        assert carrier_dtype(257) == np.dtype("<u2")
        assert carrier_dtype(65536) == np.dtype("<u2")
        assert carrier_dtype(65537) == np.dtype("<i4")

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(3)
        prev = rng.integers(0, 16, size=(10, 4)).astype(np.int32)
        cur = prev.copy()
        cur[2, 1] = (cur[2, 1] + 1) % 16
        cur[:, 3] = rng.integers(0, 16, size=10)
        out = prev.copy()
        blob = encode_update(prev, cur, 16)
        changed = decode_update(blob, out)
        assert np.array_equal(out, cur)
        assert changed == len(
            [c for c in range(4) if (prev[:, c] != cur[:, c]).any()])

    def test_no_change_is_near_free(self):
        prev = np.zeros((50, 20), dtype=np.int32)
        blob = encode_update(prev, prev, 16)
        assert len(blob) < naive_update_bytes(50, 20) / 10

    def test_compression_beats_naive_on_sparse_change(self):
        rng = np.random.default_rng(7)
        prev = rng.integers(0, 16, size=(100, 40)).astype(np.int32)
        cur = prev.copy()
        cur[5, 7] = (cur[5, 7] + 1) % 16
        blob = encode_update(prev, cur, 16)
        assert naive_update_bytes(100, 40) / len(blob) >= 4.0

    def test_truncated_blob_rejected(self):
        prev = np.zeros((6, 3), dtype=np.int32)
        cur = np.arange(18, dtype=np.int32).reshape(6, 3) % 16
        blob = encode_update(prev, cur, 16)
        for cut in (0, 4, len(blob) - 1):
            with pytest.raises(WireFormatError):
                decode_update(blob[:cut], prev.copy())

    def test_trailing_bytes_rejected(self):
        prev = np.zeros((6, 3), dtype=np.int32)
        cur = (prev + 2) % 16
        blob = encode_update(prev, cur, 16)
        with pytest.raises(WireFormatError):
            decode_update(blob + b"\x00", prev.copy())

    def test_shape_mismatch_rejected(self):
        prev = np.zeros((6, 3), dtype=np.int32)
        blob = encode_update(prev, prev, 16)
        with pytest.raises(WireFormatError):
            decode_update(blob, np.zeros((6, 4), dtype=np.int32))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fuzz_roundtrip(self, data):
        rows = data.draw(st.integers(1, 12), label="rows")
        cols = data.draw(st.integers(1, 12), label="cols")
        carrier = data.draw(st.sampled_from([2, 16, 256, 300, 70_000]),
                            label="carrier")
        flat = st.lists(st.integers(0, carrier - 1),
                        min_size=rows * cols, max_size=rows * cols)
        prev = np.array(data.draw(flat, label="prev"),
                        dtype=np.int32).reshape(rows, cols)
        cur = np.array(data.draw(flat, label="cur"),
                       dtype=np.int32).reshape(rows, cols)
        out = prev.copy()
        changed = decode_update(encode_update(prev, cur, carrier), out)
        assert np.array_equal(out, cur)
        assert changed == int(
            ((prev != cur).any(axis=0)).sum())


# ----------------------------------------------------------------------
# 3. A live worker's protocol discipline
# ----------------------------------------------------------------------


def _live_worker():
    """One in-thread single-session worker; returns its endpoint."""
    ready = threading.Event()
    box = {}

    def cb(host, port):
        box["ep"] = (host, port)
        ready.set()

    th = threading.Thread(target=serve_worker,
                          kwargs=dict(port=0, once=True, ready_callback=cb),
                          daemon=True)
    th.start()
    assert ready.wait(10), "worker never bound its socket"
    return box["ep"]


class TestWorkerProtocol:
    def test_version_skew_gets_error_frame_then_close(self):
        host, port = _live_worker()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            sock.sendall(_HEADER.pack(MAGIC, WIRE_VERSION + 1, MSG_STOP, 0))
            fc = FrameConnection(sock)
            msg_type, payload = fc.recv()
            assert msg_type == MSG_ERROR
            obj, _ = unpack_payload(payload)
            assert "version" in obj["message"]
            with pytest.raises(WireClosedError):
                fc.recv()

    def test_garbage_stream_drops_connection(self):
        # a header-sized garbage prefix (so the worker leaves no unread
        # byte that would turn its close into a reset): one format
        # error frame, then the worker hangs up
        host, port = _live_worker()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n"[:_HEADER.size])
            fc = FrameConnection(sock)
            msg_type, payload = fc.recv()
            assert msg_type == MSG_ERROR
            obj, _ = unpack_payload(payload)
            assert obj["kind"] == "format" and "magic" in obj["message"]
            with pytest.raises(WireClosedError):
                fc.recv()

    def test_stop_is_acked(self):
        host, port = _live_worker()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            fc = FrameConnection(sock)
            fc.send(MSG_STOP)
            msg_type, payload = fc.recv()
            assert (msg_type, payload) == (MSG_ACK, b"")

    def test_handler_failure_is_relayed_and_worker_stays_usable(self):
        # docs/wire.md "Failure semantics": a command the worker cannot
        # serve is answered with MSG_ERROR naming the failure, and the
        # session goes on
        host, port = _live_worker()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            fc = FrameConnection(sock)
            fc.send(MSG_SIGMA_ROUND, pack_payload({"full": True}))
            msg_type, payload = fc.recv()
            assert msg_type == MSG_ERROR
            obj, _ = unpack_payload(payload)
            assert "sigma round before sigma init" in obj["message"]
            fc.send(MSG_PING)
            assert fc.recv() == (MSG_ACK, b"")
            fc.send(MSG_STOP)
            assert fc.recv() == (MSG_ACK, b"")


# ----------------------------------------------------------------------
# 4. Loopback bit-identity vs. the vectorized engine
# ----------------------------------------------------------------------


#: ``(importer, exporter, hop weight)`` of the pinned-wire network:
#: nine nodes, node 8 exports only (a degree-0 importer), no RNG.
_PIN_ARCS = (
    (0, 1, 1), (1, 0, 2), (1, 2, 1), (2, 1, 1), (2, 3, 3), (3, 2, 1),
    (3, 4, 1), (4, 3, 2), (4, 5, 1), (5, 4, 1), (5, 6, 2), (6, 5, 1),
    (6, 7, 1), (7, 6, 3), (0, 8, 1), (7, 8, 1), (0, 4, 3), (4, 0, 1),
    (2, 6, 2), (6, 2, 2), (3, 7, 1), (5, 1, 3),
)

#: SHA-256 over every frame the coordinator sends and receives in
#: :meth:`TestWirePin.test_coordinator_frames_are_pinned`, and their
#: count.  A deliberate wire change updates both together with the
#: version table in docs/wire.md.
_PIN_FRAMES = 166
_PIN_DIGEST = ("f47d6865adba6415de8848d21a50f306"
               "d7e29123a6d9b33a65057ea837ee528f")


class TestWirePin:
    def test_coordinator_frames_are_pinned(self, monkeypatch):
        """σ, one σ round, a stability check and the five oracle δ
        schedules (checkpoints every window) put exactly the pinned
        frames on the wire: payloads only, so the frame header may
        change without moving the digest."""
        frames = []
        send, recv = FrameConnection.send, FrameConnection.recv

        def recording_send(fc, msg_type, payload=b""):
            frames.append(("send", msg_type, bytes(payload)))
            send(fc, msg_type, payload)

        def recording_recv(fc):
            msg_type, payload = recv(fc)
            frames.append(("recv", msg_type, bytes(payload)))
            return msg_type, payload

        monkeypatch.setattr(FrameConnection, "send", recording_send)
        monkeypatch.setattr(FrameConnection, "recv", recording_recv)
        monkeypatch.setattr(remote_mod, "DELTA_CKPT_EVERY", 1)
        alg = HopCountAlgebra(16)
        net = Network(alg, 9)
        for i, k, w in _PIN_ARCS:
            net.set_edge(i, k, alg.edge(w))
        start = RoutingState.identity(alg, net.n)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            iterate_sigma_vectorized(net, start, engine=eng)
            eng.sigma(start)
            eng.is_stable(start)
            for sched in (SynchronousSchedule(net.n),
                          RoundRobinSchedule(net.n),
                          FixedDelaySchedule(net.n, delay=3),
                          AdversarialStaleSchedule(net.n, max_delay=5,
                                                   burst=2),
                          RandomSchedule(net.n, seed=8, max_delay=4)):
                assert eng.delta(sched, start, max_steps=400).converged
        digest = hashlib.sha256()
        for direction, msg_type, payload in frames:
            digest.update(f"{direction} {msg_type} {len(payload)}\n"
                          .encode())
            digest.update(payload)
        assert (len(frames), digest.hexdigest()) == \
            (_PIN_FRAMES, _PIN_DIGEST)


class TestLoopbackBitIdentity:
    def test_sigma_trajectory_identical(self):
        net = _net(9)
        start = RoutingState.identity(net.algebra, net.n)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            rem = iterate_sigma_vectorized(net, start, keep_trajectory=True,
                                           engine=eng)
        ref = iterate_sigma_vectorized(net, start, keep_trajectory=True)
        assert rem.converged == ref.converged
        assert rem.rounds == ref.rounds
        assert len(rem.trajectory) == len(ref.trajectory)
        for a, b in zip(rem.trajectory, ref.trajectory):
            assert a.equals(b, net.algebra)

    def test_sigma_from_garbage_states(self):
        net = _net(11, seed=4)
        rng = random.Random(2)
        with RemoteVectorizedEngine(net, workers=3) as eng:
            for _ in range(3):
                start = random_state(net.algebra, net.n, rng)
                rem = iterate_sigma_vectorized(net, start, engine=eng)
                ref = iterate_sigma_vectorized(net, start)
                assert rem.converged == ref.converged
                assert rem.rounds == ref.rounds
                assert rem.state.equals(ref.state, net.algebra)

    def test_delta_identical_across_schedules(self):
        net = _net(9, seed=2)
        start = RoutingState.identity(net.algebra, net.n)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            for sched in _schedules(net.n):
                rem = eng.delta(sched, start, max_steps=400)
                ref = _vectorized_delta(net, sched, start, 400)
                assert rem.converged == ref.converged, repr(sched)
                assert rem.steps == ref.steps, repr(sched)
                assert rem.converged_at == ref.converged_at, repr(sched)
                assert rem.history_retained == ref.history_retained, \
                    repr(sched)
                assert rem.state.equals(ref.state, net.algebra), repr(sched)

    def test_delta_window_one_identical(self, monkeypatch):
        net = _net(8, seed=6)
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=9, max_delay=3)
        monkeypatch.setattr(remote_mod, "DELTA_WINDOW", 1)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            rem = eng.delta(sched, start, max_steps=300)
        ref = _vectorized_delta(net, sched, start, 300)
        assert rem.converged == ref.converged
        assert rem.steps == ref.steps
        assert rem.converged_at == ref.converged_at
        assert rem.state.equals(ref.state, net.algebra)

    def test_delta_bit_identical_across_window_sizes(self, monkeypatch):
        """One command per window vs one per step must compute the same
        run — every window size, same converged_at, same fixed point."""
        net = _net(12, seed=14)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        sched = RandomSchedule(net.n, seed=15, max_delay=4)
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=400, strict=True)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            for window in (1, 2, 7, 16, 64):
                monkeypatch.setattr(remote_mod, "DELTA_WINDOW", window)
                res = eng.delta(sched, start, max_steps=400)
                assert res.converged == ref.converged, window
                assert res.converged_at == ref.converged_at, window
                assert res.state.equals(ref.state, alg), window

    def test_windowed_delta_amortises_commands_8x(self):
        """At the default window the per-step command count drops ≥ 8×
        (vs one command per step) on any run spanning at least a couple
        of windows."""
        net = _net(12, seed=16)
        start = RoutingState.identity(net.algebra, net.n)
        # a slow-converging schedule so the run spans many windows
        sched = RandomSchedule(net.n, seed=17, activation_prob=0.3,
                               max_delay=4)
        assert DELTA_WINDOW >= 16
        with RemoteVectorizedEngine(net, workers=2) as eng:
            res = eng.delta(sched, start, max_steps=600)
            assert res.converged
            assert eng.delta_ipc_steps >= 32, \
                "need a run long enough to amortise"
            ratio = eng.delta_ipc_steps / eng.delta_ipc_commands
            assert ratio >= 8.0, (eng.delta_ipc_steps,
                                  eng.delta_ipc_commands)

    def test_windowed_delta_converges_mid_window_like_serial(
            self, monkeypatch):
        """Convergence at a step that is not a window boundary must
        report the serial step/state (the coordinator replays the
        counter over the per-step flags)."""
        net = _net(10, seed=18)
        alg = net.algebra
        start = RoutingState.identity(alg, net.n)
        sched = FixedDelaySchedule(net.n, delay=3)
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=400, strict=True)
        assert ref.converged
        # a window far larger than the whole run: everything happens
        # inside one command
        monkeypatch.setattr(remote_mod, "DELTA_WINDOW", 128)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            res = eng.delta(sched, start, max_steps=400)
            assert eng.delta_ipc_commands <= 2
            assert res.converged and res.converged_at == ref.converged_at
            assert res.steps == ref.steps
            assert res.state.equals(ref.state, alg)

    def test_wire_stats_recorded(self):
        net = _net(9)
        start = RoutingState.identity(net.algebra, net.n)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            iterate_sigma_vectorized(net, start, engine=eng)
            sigma_stats = eng.wire_stats
            assert sigma_stats.rounds > 0
            assert sigma_stats.bytes_sent > 0
            assert sigma_stats.bytes_received > 0
            assert sigma_stats.commands_per_round == eng.workers
            # hop-count codes travel as single bytes + change bitmasks:
            # far below a naive 4-byte-per-entry full-column transfer
            assert sigma_stats.compression_ratio > 1.0
            sched = RandomSchedule(net.n, seed=1, max_delay=3)
            eng.delta(sched, start, max_steps=300)
            assert eng.delta_ipc_commands >= 1
            assert eng.delta_ipc_steps >= eng.delta_ipc_commands
            # stats are per run: the same run again ships the same bytes
            first = eng.wire_stats.as_dict()
            eng.delta(sched, start, max_steps=300)
            assert eng.wire_stats.as_dict() == first

    def test_first_grid_reports_only_its_own_traffic(self):
        """The pool build (one MSG_LOAD per shard) is not the grid's
        traffic: a fresh session's first grid reports the same wire
        volume as an identical second grid, and as the same trial run
        as a lone δ; a grid's stats cover every one of its trials."""
        net = _net(9)
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=1, max_delay=3)
        with RoutingSession(net, EngineSpec("remote",
                                            remote_workers=2)) as s:
            first = s.delta_grid([(sched, start)], max_steps=300)
            second = s.delta_grid([(sched, start)], max_steps=300)
            single = s.delta(sched, start, max_steps=300)
            double = s.delta_grid([(sched, start)] * 2, max_steps=300)
        assert first.resolution.chosen == "remote"
        assert first.wire.as_dict() == second.wire.as_dict() == \
            single.wire.as_dict()
        assert first.degraded == second.degraded == ()
        assert double.wire.commands == 2 * first.wire.commands
        assert double.wire.bytes_sent == 2 * first.wire.bytes_sent

    def test_unbounded_schedule_runs_on_the_workers(self):
        """A schedule that declares no staleness bound runs on the
        workers too, on a ring sized from its derived bound."""
        class Unbounded(RandomSchedule):
            def max_read_back(self):
                return None

        net = _net(8)
        start = RoutingState.identity(net.algebra, net.n)
        sched = Unbounded(net.n, seed=3, max_delay=2)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            rem = delta_run_remote(net, sched, start, max_steps=300,
                                   engine=eng)
            assert eng.delta_ipc_steps >= rem.steps
        ref = RoutingSession(net, "incremental").delta(
            sched, start, max_steps=300, strict=True)
        assert rem.converged == ref.converged
        assert rem.steps == ref.steps
        assert rem.converged_at == ref.converged_at
        assert rem.state.equals(ref.state, net.algebra)


# ----------------------------------------------------------------------
# 5. Failure modes: typed errors, never hangs
# ----------------------------------------------------------------------


class TestFailureModes:
    def test_worker_death_mid_delta_heals(self):
        # supervision contract: a dead loopback worker is respawned and
        # the run replays to the same fixed point as the serial engine
        net = _net(9)
        start = RoutingState.identity(net.algebra, net.n)
        sched = RandomSchedule(net.n, seed=2, max_delay=3)
        ref = _vectorized_delta(net, sched, start, 300)
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=30.0)
        try:
            iterate_sigma_vectorized(net, start, engine=eng)  # the pool
            victim = eng._res.procs[1]
            victim.kill()
            victim.join(timeout=10)
            res = eng.delta(sched, start, max_steps=300)
            assert res.converged == ref.converged
            assert res.steps == ref.steps
            assert res.state.equals(ref.state, net.algebra)
            assert any(ev.code == "worker-respawned" for ev in eng.degraded)
        finally:
            eng.close()

    def test_worker_death_mid_delta_strict_is_typed(self):
        # strict engines keep the pre-supervision contract: typed error
        net = _net(9)
        start = RoutingState.identity(net.algebra, net.n)
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=30.0,
                                     strict=True)
        try:
            iterate_sigma_vectorized(net, start, engine=eng)  # the pool
            victim = eng._res.procs[1]
            victim.kill()
            victim.join(timeout=10)
            pids = {p.pid for p in eng._res.procs}
            sched = RandomSchedule(net.n, seed=2, max_delay=3)
            with pytest.raises(RemoteWorkerError) as exc:
                eng.delta(sched, start, max_steps=300)
            err = exc.value
            assert err.shard_id is not None
            assert err.last_acked_round is not None
            assert err.last_acked_round >= 0
            # the failure tore the pool down, not the engine: nothing
            # lingers, and the next call runs on a new pool
            assert not eng.closed
            assert (eng._res.conns, eng._res.procs) == ([], [])
            assert not pids & {p.pid for p in
                               multiprocessing.active_children()}
            res = eng.delta(sched, start, max_steps=300)
            ref = _vectorized_delta(net, sched, start, 300)
            assert (res.converged, res.steps, res.converged_at) == \
                (ref.converged, ref.steps, ref.converged_at)
            assert res.state.equals(ref.state, net.algebra)
        finally:
            eng.close()

    def test_strict_fault_then_the_next_call_rebuilds(self):
        # a strict session raises the typed error on the failing call,
        # and its next σ runs on a new pool, bit-identical to naive
        net = _net(12)
        plan = {"seed": 1, "rules": [{
            "kind": "close", "role": "coordinator", "op": "send",
            "msg_type": MSG_SIGMA_ROUND}]}
        ref = RoutingSession(net, EngineSpec("naive")).sigma()
        spec = EngineSpec("remote", remote_workers=2, strict=True,
                          socket_timeout=30.0, fault_plan=plan)
        with RoutingSession(net, spec) as s:
            with pytest.raises(RemoteWorkerError, match="severed"):
                s.sigma()
            eng = s._engines["remote"]
            res = s.sigma()
            assert s._engines["remote"] is eng
        assert (res.converged, res.rounds) == (ref.converged, ref.rounds)
        assert res.state.equals(ref.state, net.algebra)

    def test_silent_worker_trips_socket_timeout(self):
        # two accept-and-never-reply servers: the coordinator must give
        # up after the configured timeout with a typed error, not hang
        held = []
        servers = []
        endpoints = []
        for _ in range(2):
            srv = socket.create_server(("127.0.0.1", 0))
            servers.append(srv)
            endpoints.append(("127.0.0.1", srv.getsockname()[1]))

            def hold(server=srv):
                try:
                    conn, _ = server.accept()
                    held.append(conn)    # keep open, never reply
                except OSError:
                    pass

            threading.Thread(target=hold, daemon=True).start()
        net = _net(9)
        t0 = time.monotonic()
        try:
            eng = RemoteVectorizedEngine(net, endpoints=endpoints,
                                         socket_timeout=0.5)
            with pytest.raises(RemoteWorkerError) as exc:
                iterate_sigma_vectorized(
                    net, RoutingState.identity(net.algebra, net.n), engine=eng)
            assert "0.5" in str(exc.value)
            assert time.monotonic() - t0 < 30
        finally:
            for conn in held:
                conn.close()
            for srv in servers:
                srv.close()

    def test_refused_endpoint_closes_the_opened_connections(self):
        # the first endpoint accepts, the second refuses: the build
        # fails typed and closes the connection it had already opened,
        # so the single-session worker sees its session end and exits
        procs, endpoints = spawn_loopback_workers(1)
        srv = socket.create_server(("127.0.0.1", 0))
        refused = ("127.0.0.1", srv.getsockname()[1])
        srv.close()                      # nobody listening any more
        net = _net(9)
        eng = RemoteVectorizedEngine(net, endpoints=endpoints + [refused],
                                     socket_timeout=10.0)
        try:
            with pytest.raises(RemoteError, match="cannot connect"):
                iterate_sigma_vectorized(
                    net, RoutingState.identity(net.algebra, net.n),
                    engine=eng)
            procs[0].join(timeout=10)
            assert not procs[0].is_alive()
            assert eng._res.conns == [] and not eng.closed
        finally:
            eng.close()
            _reap_workers(procs)

    def test_unreachable_endpoint_is_typed(self):
        srv = socket.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]
        srv.close()                      # nobody listening any more
        net = _net(9)
        eng = RemoteVectorizedEngine(
            net, endpoints=[("127.0.0.1", port)] * 2, socket_timeout=2.0)
        with pytest.raises(RemoteError):
            iterate_sigma_vectorized(
                net, RoutingState.identity(net.algebra, net.n), engine=eng)

    def test_no_transport_raises(self):
        with pytest.raises(ValueError):
            RemoteVectorizedEngine(_net(9))

    def test_single_shard_refused(self):
        with pytest.raises(UnsupportedAlgebraError):
            RemoteVectorizedEngine(_net(9), workers=1)

    def test_closed_engine_refuses_runs(self):
        net = _net(9)
        eng = RemoteVectorizedEngine(net, workers=2)
        eng.close()
        assert eng.closed
        with pytest.raises(RuntimeError):
            iterate_sigma_vectorized(
                net, RoutingState.identity(net.algebra, net.n), engine=eng)


# ----------------------------------------------------------------------
# 6. Negotiation, sizing gates, topology mutation
# ----------------------------------------------------------------------


class TestNegotiation:
    def test_explicit_request_with_transport_wins(self):
        res = resolve_engine(_net(9), "remote", "sigma", remote=2)
        assert res.chosen == "remote"
        assert res.workers == 2
        assert not res.fell_back

    def test_no_transport_skips_with_code(self):
        res = resolve_engine(_net(9), "remote", "sigma")
        assert res.chosen == "batched"
        assert res.reason_codes() == [("remote", "no-remote-endpoints")]

    def test_strict_raises_instead_of_falling(self):
        with pytest.raises(UnsupportedEngineError) as exc:
            resolve_engine(_net(9), "remote", "sigma", strict=True)
        assert exc.value.resolution.reason_codes() == \
            [("remote", "no-remote-endpoints")]

    def test_min_n_gate_applies_even_to_explicit_requests(self):
        res = resolve_engine(_net(REMOTE_MIN_N - 1), "remote", "sigma",
                             remote=2)
        assert res.chosen != "remote"
        assert res.reason_codes()[0] == ("remote", "below-min-n")

    def test_single_endpoint_skips_with_code(self):
        res = resolve_engine(_net(9), "remote", "sigma",
                             remote=[("127.0.0.1", 1)])
        assert res.reason_codes()[0] == ("remote", "workers-lt-2")

    def test_non_finite_algebra_skips_first(self):
        alg = ShortestPathsAlgebra()
        net = erdos_renyi(alg, 8, 0.4, uniform_weight_factory(alg, 1, 5),
                          seed=0)
        res = resolve_engine(net, "remote", "sigma", remote=2)
        assert res.reason_codes()[0] == ("remote", "no-finite-encoding")

    def test_shard_split_covers_all_columns(self):
        for n in (4, 9, 10, 17):
            for w in (2, 3, 4):
                blocks = _split_columns(n, w)
                assert blocks[0][0] == 0 and blocks[-1][1] == n
                assert all(b[1] == c[0]
                           for b, c in zip(blocks, blocks[1:]))

    def test_engine_republishes_on_mutation(self, monkeypatch):
        # a write makes the next σ ship one MSG_LOAD per shard over the
        # live connections; like a first load, the republish stays out
        # of the run's wire stats
        net = _net(9)
        start = RoutingState.identity(net.algebra, net.n)
        sent = []
        send = FrameConnection.send

        def recording_send(fc, msg_type, payload=b""):
            sent.append(msg_type)
            send(fc, msg_type, payload)

        monkeypatch.setattr(FrameConnection, "send", recording_send)
        with RemoteVectorizedEngine(net, workers=2) as eng:
            iterate_sigma_vectorized(net, start, engine=eng)
            net.set_edge(0, net.n - 1, net.algebra.edge(1))
            del sent[:]
            res = iterate_sigma_vectorized(net, start, engine=eng)
            assert sent.count(MSG_LOAD) == 2 and MSG_STOP not in sent
            republished = eng.wire_stats.as_dict()
        with RemoteVectorizedEngine(net, workers=2) as fresh:
            iterate_sigma_vectorized(net, start, engine=fresh)
            assert fresh.wire_stats.as_dict() == republished
        ref = RoutingSession(net, EngineSpec("naive")).sigma(start)
        assert (res.converged, res.rounds) == (ref.converged, ref.rounds)
        assert res.state.equals(ref.state, net.algebra)

    def test_session_keeps_its_engine_across_mutation(self):
        net = _net(9)
        with RoutingSession(net,
                            EngineSpec("remote", remote_workers=2)) as s:
            s.sigma()
            eng = s._engines["remote"]
            net.set_edge(0, net.n - 1, net.algebra.edge(1))
            res = s.sigma()
            assert s._engines["remote"] is eng
        ref_net = _net(9)
        ref_net.set_edge(0, ref_net.n - 1, ref_net.algebra.edge(1))
        with RoutingSession(ref_net, EngineSpec("naive")) as ref_s:
            ref = ref_s.sigma()
        assert res.converged == ref.converged
        assert res.rounds == ref.rounds
        assert res.state.equals(ref.state, net.algebra)


# ----------------------------------------------------------------------
# 7. The session facade's remote column
# ----------------------------------------------------------------------


class TestSessionRemote:
    def test_spec_coerces_and_validates(self):
        spec = EngineSpec("remote", endpoints=[("h", 1), "host:2"])
        assert spec.endpoints == (("h", 1), "host:2")
        assert spec.remote_transport == spec.endpoints
        assert EngineSpec("remote", remote_workers=3).remote_transport == 3
        with pytest.raises(ValueError):
            EngineSpec("remote", socket_timeout=0)

    def test_reports_carry_wire_stats(self):
        net = _net(9)
        sched = RandomSchedule(net.n, seed=4, max_delay=3)
        with RoutingSession(net,
                            EngineSpec("remote", remote_workers=2)) as s:
            srep = s.sigma()
            drep = s.delta(sched, max_steps=400)
            grid = s.delta_grid(
                [(RandomSchedule(net.n, seed=k, max_delay=3),
                  RoutingState.identity(net.algebra, net.n))
                 for k in (1, 2)], max_steps=400)
        for rep in (srep, drep, grid):
            assert rep.resolution.chosen == "remote"
            assert isinstance(rep.wire, WireStats)
            assert rep.wire.rounds > 0
        assert drep.ipc_commands >= 1
        assert drep.metadata["wire"]["bytes_per_round"] > 0
        assert grid.metadata["wire"]["rounds"] >= drep.wire.rounds

    def test_local_rungs_have_no_wire(self):
        net = _net(9)
        with RoutingSession(net, EngineSpec("vectorized")) as s:
            assert s.sigma().wire is None


# ----------------------------------------------------------------------
# 8. Writes keep the workers: the snapshot is republished in place
# ----------------------------------------------------------------------


class TestWorkerRelease:
    """Topology mutations on an ``engine="remote"`` session republish
    the snapshot over the live connections: the same loopback worker
    subprocesses serve every write, nothing is stopped until the
    session closes, and close reaps them deterministically."""

    @staticmethod
    def _workers():
        return [p for p in multiprocessing.active_children()
                if p.name == "repro-remote-worker"]

    def test_writes_keep_the_workers(self, monkeypatch):
        baseline = len(self._workers())
        net = _net(9)
        ref_net = _net(9)
        factory = uniform_weight_factory(net.algebra, 1, 3)
        rng = random.Random(5)
        stops = []
        send = FrameConnection.send

        def recording_send(fc, msg_type, payload=b""):
            if msg_type == MSG_STOP:
                stops.append(fc)
            send(fc, msg_type, payload)

        monkeypatch.setattr(FrameConnection, "send", recording_send)
        with RoutingSession(net,
                            EngineSpec("remote", remote_workers=2)) as s:
            assert s.sigma().resolution.chosen == "remote"
            pids = [p.pid for p in self._workers()]
            assert len(pids) == baseline + 2
            arcs = sorted(net.present_edges())
            for w in range(10):          # alternating remove / set
                i, k = arcs[w]
                if w % 2 == 0:
                    net.remove_edge(i, k)
                    ref_net.remove_edge(i, k)
                else:
                    fn = factory(rng, i, k)
                    net.set_edge(i, k, fn)
                    ref_net.set_edge(i, k, fn)
                res = s.sigma()
                ref = RoutingSession(ref_net, EngineSpec("naive")).sigma()
                assert (res.converged, res.rounds) == \
                    (ref.converged, ref.rounds)
                assert res.state.equals(ref.state, net.algebra)
                assert [p.pid for p in self._workers()] == pids
            assert stops == []
        # session close stops and reaps the pair
        assert len(stops) == 2
        assert len(self._workers()) == baseline


# ----------------------------------------------------------------------
# 9. The CLI worker subcommand
# ----------------------------------------------------------------------


class TestCLIWorker:
    def test_announce_line_is_parseable_and_servable(self):
        procs = []
        endpoints = []
        try:
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker",
                     "--port", "0", "--once"],
                    stdout=subprocess.PIPE, text=True)
                procs.append(proc)
                line = proc.stdout.readline()
                m = re.search(r"listening on (\S+):(\d+)", line)
                assert m, f"unparseable announce line: {line!r}"
                endpoints.append((m.group(1), int(m.group(2))))
            net = _net(9)
            start = RoutingState.identity(net.algebra, net.n)
            with RemoteVectorizedEngine(net, endpoints=endpoints,
                                        socket_timeout=30.0) as eng:
                rem = iterate_sigma_vectorized(net, start, engine=eng)
            ref = iterate_sigma_vectorized(net, start)
            assert rem.rounds == ref.rounds
            assert rem.state.equals(ref.state, net.algebra)
            for proc in procs:           # --once: exit after the session
                assert proc.wait(timeout=15) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
                    proc.wait(timeout=15)
                proc.stdout.close()
