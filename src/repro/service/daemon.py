"""The routing-as-a-service daemon: warm sessions behind a TCP socket.

:class:`RoutingServiceDaemon` is a stdlib-``asyncio`` JSON-over-TCP
server.  It owns a registry of warm :class:`~repro.session.RoutingSession`
objects — engine negotiated once, adjacency shared with the incremental
engine's dirty-set tracking — so a client streams ``set_edge`` /
``remove_edge`` mutations and re-queries without ever paying a rebuild.
Each session carries a fixed-point/report cache keyed by

    (verb, adjacency.version, algebra, start seed,
     canonical schedule spec, SCHEDULE_SEED_VERSION, request knobs)

so a repeated query is an O(1) cache hit and a mutation — which bumps
``adjacency.version`` — invalidates exactly the entries computed
against the old topology (stale keys can never be looked up again; the
whole per-session cache is dropped eagerly so memory tracks the live
topology).

A default ``sigma``/``routes`` solve after a write may start from the
session's last fixed point instead of the identity (the reply
says ``warm``): only when the session certifies a unique fixed point
(Theorem 7) and ``max_rounds`` covers the bound that proves, so the
answer is the cold one.  The warm state lives in memory only.

Concurrency model: the event loop only parses frames, consults caches
and builds the O(n) reply of a ``routes`` (or a ``sigma`` without
``include_state``) whose solve is already cached; fixed-point computes
run in the default thread-pool executor under a per-session
:class:`asyncio.Lock`, so concurrent clients on one warm session
serialize safely (first one computes, the rest hit the cache) while
other sessions and connections stay responsive.

Durability (``state_dir=...`` / ``repro.cli serve --state-dir``): every
admitted ``load`` / ``set_edge`` / ``remove_edge`` is appended to a
checksummed write-ahead journal before its reply is sent, and the full
warm state (session params, ordered mutation logs, topology versions,
fixed-point cache bodies) is snapshotted periodically and on drain —
see :mod:`repro.service.persistence`.  On startup the daemon serves
``hello``/``health`` immediately in the ``restoring`` state, rebuilds
every session from the newest valid snapshot plus the journal tail
(torn tails are truncated exactly at the tear), and only then flips to
``ready`` — with the same topology versions and a warm cache, so the
first repeated query after a crash is already a hit.  SIGTERM and the
``shutdown`` verb trigger a **graceful drain**: new work is refused
with a typed ``draining`` error (+ ``retry_after_ms``), admitted
inflight requests finish under ``drain_deadline``, the journal is
flushed and a final snapshot written before the loop stops.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import random
import signal
import threading
import uuid
from collections import OrderedDict, deque
from functools import partial
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..core.faults import FaultPlan, RECV_CLOSE, RECV_DROP
from ..core.schedule import RandomSchedule
from ..session import EngineSpec, RoutingSession
from .persistence import (
    ServicePersistence,
    cache_key_from_json,
    cache_key_to_json,
)
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_DRAINING,
    ERR_ENGINE,
    ERR_HELLO_REQUIRED,
    ERR_INTERNAL,
    ERR_MALFORMED,
    ERR_NO_SESSION,
    ERR_UNKNOWN_VERB,
    ERR_VERSION_SKEW,
    FATAL_CODES,
    MAX_LINE,
    SERVICE_VERSION,
    DigestMemo,
    ServiceError,
    encode_frame,
    error_reply,
    percentile,
    schedule_cache_key,
    schedule_from_spec,
    start_state,
    state_digest,
    state_matrix,
)

__all__ = ["RoutingServiceDaemon", "serve"]

logger = logging.getLogger("repro.service")

_MUTATION_VERBS = ("set_edge", "remove_edge")
_QUERY_VERBS = ("sigma", "delta", "convergence", "routes")
#: the whole vocabulary, in the order the ``unknown-verb`` error lists it
_VERBS = (("hello", "load") + _MUTATION_VERBS + _QUERY_VERBS +
          ("stats", "health", "snapshot", "shutdown"))


class _SessionEntry:
    """One warm session: network + RoutingSession + its report cache."""

    __slots__ = ("sid", "network", "session", "factory", "lock", "cache",
                 "hits", "misses", "invalidated", "mutations", "params",
                 "mutation_log", "state_cache", "fixed", "digest_memo")

    def __init__(self, sid: str, network, session: RoutingSession,
                 factory, params: Dict[str, Any]):
        self.sid = sid
        self.network = network
        self.session = session
        self.factory = factory
        self.params = params          # load parameters, echoed by stats
        self.lock = asyncio.Lock()    # serializes computes + mutations
        self.cache: "OrderedDict[Tuple, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidated = 0
        self.mutations = 0
        #: ordered ``[verb, i, k, edge_seed]`` records — replaying them
        #: against a freshly built network reproduces the adjacency and
        #: its version counter bit for bit (snapshots persist this).
        self.mutation_log: List[List[Any]] = []
        #: small LRU of σ solves (``SigmaReport`` objects, never
        #: persisted — snapshots carry only JSON reply bodies) keyed by
        #: :meth:`solve_key`, ``(version, start_seed, max_rounds)``,
        #: each stored with its
        #: digest; ``sigma`` and every ``routes`` row/column at one
        #: version share one solve and one hash of the n×n state.
        self.state_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        #: the state of the last converged solve, any version and any
        #: start: where the next default solve starts when Theorem 7
        #: holds (memory only, never persisted)
        self.fixed = None
        #: the rows the last solve's digest hashed (see state_digest)
        self.digest_memo = DigestMemo()

    @property
    def version(self) -> int:
        return self.network.adjacency.version

    def solve_key(self, start_seed: Optional[int], max_rounds: int) -> Tuple:
        """The :attr:`state_cache` key of a σ solve at this version."""
        return (self.version, start_seed, max_rounds)

    def apply(self, verb: str, i, k, edge_seed=None) -> int:
        """Apply one ``set_edge`` / ``remove_edge`` and log it — the
        live verb, journal-tail replay and snapshot restore all mutate
        through here, so one ``edge_seed`` always yields one edge
        function.  Returns how many cached reports it invalidated."""
        i, k = int(i), int(k)
        before = self.version
        if verb == "set_edge":
            edge_seed = int(edge_seed)
            self.network.set_edge(
                i, k, self.factory(random.Random(edge_seed), i, k))
        else:
            edge_seed = None
            self.network.remove_edge(i, k)
        self.mutation_log.append([verb, i, k, edge_seed])
        self.mutations += 1
        if self.version == before:
            # a write that left the topology as it was (removing an
            # absent arc) keeps every cached answer valid
            return 0
        # every cached report was computed against the old version
        dropped = len(self.cache)
        self.cache.clear()
        self.state_cache.clear()
        self.invalidated += dropped
        return dropped


class RoutingServiceDaemon:
    """A long-lived JSON-over-TCP routing service (see module docs and
    ``docs/service.md`` for the protocol).

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    engine:
        Default :class:`~repro.session.EngineSpec` engine for sessions
        whose ``load`` does not name one (ladder rung or ``"auto"``).
    max_sessions:
        Warm-session registry bound; loading past it evicts (and
        closes) the least-recently-used session.
    cache_entries:
        Per-session report-cache bound (LRU).
    max_inflight:
        Backpressure bound: how many query computes may be admitted
        (waiting on a session lock or running in the executor) at once.
        Past it the daemon *sheds* with a typed ``busy`` error carrying
        a ``retry_after_ms`` hint instead of buffering unbounded work.
    fault_plan:
        Optional seeded :class:`~repro.core.faults.FaultPlan` (object,
        dict, or JSON string) injected into the connection stream for
        chaos testing: ``role="daemon"`` rules drop/delay/corrupt
        request lines and reply frames deterministically.  ``delay``
        faults stall only the targeted peer (the injector hands the
        delay back and the connection task awaits it; the event loop —
        and every other connection — keeps running).
    announce:
        Print the ``listening on host:port`` line on start — what the
        CLI and the CI smoke job parse.
    state_dir:
        Durable-state directory (write-ahead journal + snapshots, see
        :mod:`repro.service.persistence`).  ``None`` (default) keeps
        the daemon purely in-memory, exactly as before.
    snapshot_interval:
        Seconds between periodic snapshots (only written when the
        journal advanced since the last one).
    journal_sync_every:
        fsync the journal every this many admitted records (each record
        still reaches the OS before its reply — SIGKILL-safe; the batch
        bound is the machine-crash window).
    drain_deadline:
        Seconds a graceful drain waits for admitted inflight requests
        before giving up on them.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 engine: str = "auto", max_sessions: int = 8,
                 cache_entries: int = 512, max_inflight: int = 32,
                 fault_plan=None, announce: bool = False,
                 state_dir=None, snapshot_interval: float = 30.0,
                 journal_sync_every: int = 8,
                 drain_deadline: float = 10.0):
        EngineSpec(engine=engine)  # fail fast on a bad rung name
        self.host = host
        self.port = port
        self.default_engine = engine
        self.max_sessions = max_sessions
        self.cache_entries = cache_entries
        self.max_inflight = max(1, int(max_inflight))
        self._plan = (FaultPlan.parse(fault_plan)
                      if fault_plan is not None else None)
        self.announce = announce
        self.state_dir = state_dir
        self.snapshot_interval = max(0.05, float(snapshot_interval))
        self.journal_sync_every = max(1, int(journal_sync_every))
        self.drain_deadline = max(0.0, float(drain_deadline))
        self._persist: Optional[ServicePersistence] = None
        self._sessions: "OrderedDict[str, _SessionEntry]" = OrderedDict()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._latencies: "deque[float]" = deque(maxlen=8192)
        self._requests = 0
        self._errors = 0
        self._evictions = 0
        self._inflight = 0
        self._shed = 0
        self._started_at: Optional[float] = None
        #: lifecycle state the ``health`` verb reports:
        #: ``restoring`` -> ``ready`` -> ``draining``
        self._state = "ready"
        self._restored: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        #: load/mutation/query requests admitted and not yet replied —
        #: what a graceful drain waits for (unlike ``_inflight``, which
        #: counts only query computes for backpressure).
        self._active_ops = 0
        self._sigterm_installed = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind, restore durable state (when configured), and start
        accepting connections.

        With a ``state_dir`` the socket opens *before* the restore runs
        — ``hello`` and ``health`` are served in the ``restoring``
        state (so orchestration can poll readiness) while every other
        verb waits for the restore to finish.
        """
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._restored = asyncio.Event()
        self._draining = False
        self._state = "ready"
        if self.state_dir is not None:
            self._persist = ServicePersistence(
                self.state_dir, sync_every=self.journal_sync_every)
            self._state = "restoring"
        else:
            self._restored.set()
        try:
            # SIGTERM = graceful drain.  Only installable on the main
            # thread's loop; tests driving the daemon from a worker
            # thread simply go without (they use request_shutdown()).
            self._loop.add_signal_handler(signal.SIGTERM,
                                          self.request_shutdown)
            self._sigterm_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            self._sigterm_installed = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_LINE)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = perf_counter()
        self._ready.set()
        logger.info("service listening on %s:%d (engine=%s, "
                    "max_sessions=%d, state_dir=%s)", self.host, self.port,
                    self.default_engine, self.max_sessions, self.state_dir)
        if self.announce:
            print(f"repro routing service listening on "
                  f"{self.host}:{self.port}", flush=True)
        if self._persist is not None:
            await self._loop.run_in_executor(None, self._restore_state)
            if not self._draining:       # a drain can land mid-restore
                self._state = "ready"
                self._snapshot_task = self._loop.create_task(
                    self._snapshot_periodically())
            self._restored.set()
            logger.info("restore complete: %d session(s) warm, journal "
                        "seq=%d", len(self._sessions),
                        self._persist.journal_seq)

    async def serve_forever(self) -> None:
        """Block until :meth:`request_shutdown` (or the ``shutdown``
        verb) fires."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()

    async def stop(self) -> None:
        """Stop accepting, close every warm session, release the port."""
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            self._snapshot_task = None
        if self._sigterm_installed and self._loop is not None:
            try:
                self._loop.remove_signal_handler(signal.SIGTERM)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
            self._sigterm_installed = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        for entry in list(self._sessions.values()):
            await loop.run_in_executor(None, entry.session.close)
        self._sessions.clear()
        if self._persist is not None:
            self._persist.close()
            self._persist = None
        self._ready.clear()
        logger.info("service stopped (%d requests served)", self._requests)

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (used by the SIGTERM handler,
        the ``shutdown`` verb, and tests driving the daemon from a
        thread).  Routes through the graceful drain: admitted inflight
        requests finish (under :attr:`drain_deadline`), the journal is
        flushed and a final snapshot written before the loop stops.
        An idle daemon drains instantly."""
        loop = self._loop
        if loop is not None:
            loop.call_soon_threadsafe(self._begin_drain)

    def _begin_drain(self) -> None:
        """Enter the ``draining`` state (idempotent; loop thread only)."""
        if self._draining or self._loop is None:
            return
        self._draining = True
        self._state = "draining"
        logger.info("draining: %d admitted request(s) inflight, "
                    "deadline %.1fs", self._active_ops, self.drain_deadline)
        self._drain_task = self._loop.create_task(self._drain_and_stop())

    async def _drain_and_stop(self) -> None:
        """Finish inflight work, persist, then release serve_forever."""
        if self._restored is not None:
            # a drain arriving mid-restore must not write its final
            # snapshot concurrently with the restore's recovery
            # snapshot (both target the same sequence number)
            await self._restored.wait()
        deadline = perf_counter() + self.drain_deadline
        while self._active_ops > 0 and perf_counter() < deadline:
            await asyncio.sleep(0.02)
        if self._active_ops:
            logger.warning("drain deadline (%.1fs) expired with %d "
                           "request(s) still inflight; stopping anyway",
                           self.drain_deadline, self._active_ops)
        if self._persist is not None:
            try:
                await self._write_snapshot()
                self._persist.flush()
            except Exception:
                logger.exception("final drain snapshot failed; the "
                                 "journal still covers every admitted "
                                 "mutation")
        if self._stop_event is not None:
            self._stop_event.set()

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block a *foreign* thread until the daemon is accepting."""
        return self._ready.wait(timeout)

    def run(self) -> None:
        """Synchronous entry point: start, serve until shutdown, stop."""
        asyncio.run(self._run())

    async def _run(self) -> None:
        await self.start()
        try:
            await self.serve_forever()
        finally:
            await self.stop()

    # -- durability: restore ---------------------------------------------

    def _restore_state(self) -> None:
        """Rebuild every warm session from disk (executor thread).

        Runs strictly before any verb other than ``hello``/``health``
        is admitted, so it owns ``_sessions`` and the persistence
        layer single-threaded.  Ends with a *recovery snapshot* (the
        restored state, journal fully covered) and an empty journal —
        every restart starts from a bounded replay.
        """
        assert self._persist is not None
        data = self._persist.restore()
        snapshot, tail = data["snapshot"], data["tail"]
        if snapshot is not None:
            for sess in snapshot["sessions"]:
                try:
                    self._restore_session(sess)
                except Exception:
                    logger.exception(
                        "could not restore session %s from the snapshot; "
                        "skipping it", sess.get("sid"))
        for rec in tail:
            try:
                self._apply_tail_record(rec)
            except Exception:
                logger.exception("could not replay journal record "
                                 "seq=%s; skipping it", rec.get("seq"))
        payload, seq = self._snapshot_payload()
        self._persist.snapshot(payload, journal_seq=seq)
        self._persist.truncate_journal()

    def _restore_session(self, sess: Dict[str, Any]) -> None:
        """One snapshot session (or journalled ``load``) -> a warm
        ``_SessionEntry``."""
        entry = self._open(sess["sid"], sess["params"],
                           sess.get("mutations", ()))
        recorded = sess.get("version")
        if recorded is not None and entry.version != recorded:
            # deterministic replay should make this unreachable; if it
            # ever happens the cache keys are untrustworthy — serve the
            # rebuilt topology with a cold cache instead of wrong hits.
            logger.warning(
                "restored session %s reached version %d, snapshot "
                "recorded %d; dropping its cache", entry.sid,
                entry.version, recorded)
        else:
            for key_json, body in sess.get("cache", []):
                entry.cache[cache_key_from_json(key_json)] = body
        for victim in self._admit(entry):
            victim.session.close()
        logger.info("restored session %s at version %d (%d cached "
                    "report(s), %d mutation(s))", entry.sid, entry.version,
                    len(entry.cache), entry.mutations)

    def _apply_tail_record(self, rec: Dict[str, Any]) -> None:
        """Replay one journal record beyond the snapshot."""
        verb = rec.get("verb")
        if verb == "load":
            if rec["sid"] not in self._sessions:
                self._restore_session({"sid": rec["sid"],
                                       "params": rec["params"]})
            return
        entry = self._sessions.get(rec.get("sid"))
        if entry is None:
            logger.warning("journal record seq=%s mutates unknown (or "
                           "evicted) session %s; skipping",
                           rec.get("seq"), rec.get("sid"))
            return
        if verb not in _MUTATION_VERBS:
            logger.warning("journal record seq=%s has unknown verb %r; "
                           "skipping", rec.get("seq"), verb)
            return
        entry.apply(verb, rec["i"], rec["k"], rec.get("edge_seed", 0))
        recorded = rec.get("version")
        if recorded is not None and entry.version != recorded:
            logger.warning(
                "journal replay of seq=%s left session %s at version %d, "
                "record says %d", rec.get("seq"), entry.sid,
                entry.version, recorded)

    def _open(self, sid: str, params: Dict[str, Any],
              mutations=()) -> _SessionEntry:
        """Build one warm session from its load parameters and replay
        its mutation log — a live ``load`` and both restore paths open
        sessions here (blocking: runs off the event loop)."""
        # lazy: the CLI's ``serve`` subcommand imports this package
        from ..cli import build_network
        try:
            network, factory = build_network(
                params["algebra"], params["topology"],
                int(params["n"]), int(params["seed"]))
        except ValueError as exc:
            raise ServiceError(ERR_BAD_REQUEST, str(exc)) from None
        try:
            spec = EngineSpec(engine=params["engine"])
        except ValueError as exc:
            raise ServiceError(ERR_BAD_REQUEST, str(exc)) from None
        try:
            session = RoutingSession(network, spec)
        except Exception as exc:
            raise ServiceError(
                ERR_ENGINE,
                f"session construction failed: {exc}") from None
        entry = _SessionEntry(sid, network, session, factory, dict(params))
        for mutation in mutations:
            entry.apply(*mutation)
        return entry

    def _admit(self, entry: _SessionEntry) -> List[_SessionEntry]:
        """Register a session under the LRU bound; returns the evicted
        sessions for the caller to close."""
        victims = []
        while len(self._sessions) >= self.max_sessions:
            victim_sid, victim = self._sessions.popitem(last=False)
            self._evictions += 1
            logger.warning("evicting LRU session %s (%s) to admit %s",
                           victim_sid, victim.params, entry.sid)
            victims.append(victim)
        self._sessions[entry.sid] = entry
        return victims

    # -- durability: journal + snapshots ---------------------------------

    def _journal(self, record: Dict[str, Any]) -> None:
        """Append one admitted-request record (loop thread, before the
        reply is sent — an acknowledged request is always recoverable)."""
        if self._persist is not None:
            self._persist.append(record)

    def _snapshot_payload(self) -> Tuple[List[Dict[str, Any]], int]:
        """``(sessions, journal_seq)`` — built atomically with respect
        to appends (loop thread, or single-threaded during restore), so
        the seq provably covers everything in the payload."""
        sessions = []
        for entry in self._sessions.values():
            sessions.append({
                "sid": entry.sid,
                "params": dict(entry.params),
                "version": entry.version,
                "mutations": [list(m) for m in entry.mutation_log],
                "cache": [[cache_key_to_json(key), body]
                          for key, body in entry.cache.items()],
            })
        seq = self._persist.journal_seq if self._persist is not None else 0
        return sessions, seq

    async def _write_snapshot(self) -> None:
        """Snapshot now: payload captured on the loop, file I/O in the
        executor."""
        if self._persist is None:
            return
        payload, seq = self._snapshot_payload()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self._persist.snapshot(payload, journal_seq=seq))

    async def _snapshot_periodically(self) -> None:
        """Background cadence: snapshot whenever the journal advanced."""
        assert self._persist is not None
        try:
            while True:
                await asyncio.sleep(self.snapshot_interval)
                if self._persist is None:
                    return
                if self._persist.journal_lag > 0:
                    try:
                        await self._write_snapshot()
                    except Exception:
                        logger.exception("periodic snapshot failed; "
                                         "will retry next interval")
        except asyncio.CancelledError:
            pass

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        hello_done = False
        injector = (self._plan.injector("daemon")
                    if self._plan is not None else None)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # over-long line: the peer is not framing requests
                    await self._send(writer, error_reply(
                        ERR_MALFORMED,
                        f"request line exceeds {MAX_LINE} bytes"))
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break  # orderly EOF
                line = line.strip()
                if not line:
                    continue
                if injector is not None:
                    # _nowait + asyncio.sleep: a delay fault stalls only
                    # this peer's task, never the event loop (a blocking
                    # sleep here froze every other connection).
                    verdict, line, delay = injector.recv_frame_nowait(
                        0, line)
                    if delay > 0.0:
                        logger.warning("fault injection delaying peer=%s "
                                       "by %.0fms (other peers keep "
                                       "running)", peer, delay * 1e3)
                        await asyncio.sleep(delay)
                    if verdict == RECV_DROP:
                        logger.warning("fault injection dropped a request "
                                       "line from peer=%s", peer)
                        continue
                    if verdict == RECV_CLOSE:
                        logger.warning("fault injection severed the "
                                       "connection from peer=%s", peer)
                        break
                t0 = perf_counter()
                reply = await self._handle_frame(line, hello_done)
                verb = reply.get("verb")
                if reply.get("ok") and verb == "hello":
                    hello_done = True
                self._requests += 1
                elapsed = perf_counter() - t0
                self._latencies.append(elapsed)
                err = reply.get("error")
                if err:
                    self._errors += 1
                logger.info(
                    "peer=%s verb=%s ok=%s cached=%s err=%s ms=%.3f",
                    peer, verb, reply.get("ok"),
                    reply.get("cached", False),
                    err["code"] if err else None, elapsed * 1e3)
                severed = await self._send(writer, reply, injector)
                if severed:
                    logger.warning("fault injection severed the reply "
                                   "stream to peer=%s", peer)
                    break
                if err and err["code"] in FATAL_CODES:
                    break  # desynced or version-skewed peer: drop it
                if reply.get("ok") and verb == "shutdown":
                    self._begin_drain()
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(self, writer: asyncio.StreamWriter,
                    reply: Dict[str, Any], injector=None) -> bool:
        """Write one reply frame; True when a fault severed the stream
        (a ``drop`` fault suppresses the frame but keeps the connection:
        the client's read timeout is the recovery path)."""
        frame = encode_frame(reply)
        close_after = False
        if injector is not None:
            frame, close_after, delay = injector.send_frame_nowait(0, frame)
            if delay > 0.0:
                await asyncio.sleep(delay)  # stalls this peer only
        try:
            if frame is not None:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer vanished mid-reply; nothing left to tell it
        return close_after

    async def _handle_frame(self, line: bytes,
                            hello_done: bool) -> Dict[str, Any]:
        """Parse and dispatch one frame; always returns a reply dict."""
        try:
            req = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_reply(ERR_MALFORMED, f"frame is not JSON: {exc}")
        if not isinstance(req, dict):
            return error_reply(
                ERR_MALFORMED,
                f"frame must be a JSON object, got {type(req).__name__}")
        verb = req.get("verb")
        req_id = req.get("id")
        if not hello_done:
            if verb != "hello":
                return error_reply(
                    ERR_HELLO_REQUIRED,
                    "first frame must be a versioned hello "
                    '({"verb": "hello", "v": %d})' % SERVICE_VERSION,
                    verb=verb, req_id=req_id)
            client_v = req.get("v")
            if client_v != SERVICE_VERSION:
                return error_reply(
                    ERR_VERSION_SKEW,
                    f"client speaks service protocol v{client_v!r}, "
                    f"server speaks v{SERVICE_VERSION}",
                    verb=verb, req_id=req_id,
                    server_version=SERVICE_VERSION)
            return _hello_reply(req_id)
        try:
            if verb == "hello":
                # idempotent re-hello on an established connection
                return _hello_reply(req_id)
            if verb == "health":
                # served in every lifecycle state, including restoring
                return self._handle_health(req)
            if self._restored is not None and not self._restored.is_set():
                # restoring: park everything else until the warm state
                # is back (clients just see a slower first reply)
                await self._restored.wait()
            if verb == "load" or verb in _MUTATION_VERBS or \
                    verb in _QUERY_VERBS:
                if self._draining:
                    return error_reply(
                        ERR_DRAINING,
                        "daemon is draining (shutdown in progress); "
                        "this instance is not admitting new work",
                        verb=verb, req_id=req_id,
                        retry_after_ms=self._retry_hint_ms())
                self._active_ops += 1
                try:
                    if verb == "load":
                        return await self._handle_load(req)
                    if verb in _MUTATION_VERBS:
                        return await self._handle_mutation(req, verb)
                    return await self._handle_query(req, verb)
                finally:
                    self._active_ops -= 1
            if verb == "stats":
                return self._handle_stats(req)
            if verb == "snapshot":
                return await self._handle_snapshot(req)
            if verb == "shutdown":
                return {"ok": True, "verb": "shutdown", "id": req_id}
            return error_reply(
                ERR_UNKNOWN_VERB,
                f"unknown verb {verb!r}; the vocabulary is {_VERBS!r}",
                verb=verb, req_id=req_id)
        except ServiceError as exc:
            return error_reply(exc.code, exc.message, verb=verb,
                               req_id=req_id, **exc.extra)
        except Exception:  # a bug must not kill the server — or leak
            cid = uuid.uuid4().hex[:12]
            logger.exception(
                "unexpected failure handling verb=%r (correlation id %s)",
                verb, cid)
            return error_reply(
                ERR_INTERNAL,
                f"internal server error (correlation id {cid}); "
                "details are in the server log",
                verb=verb, req_id=req_id, correlation_id=cid)

    # -- verb: load ------------------------------------------------------

    async def _handle_load(self, req: Dict[str, Any]) -> Dict[str, Any]:
        algebra = req.get("algebra")
        topology = req.get("topology", "random")
        n = _int_field(req, "n")
        seed = _int_field(req, "seed", 0)
        engine = req.get("engine", self.default_engine)
        if not isinstance(algebra, str) or not isinstance(topology, str):
            raise ServiceError(ERR_BAD_REQUEST,
                              "load requires 'algebra' and 'topology' "
                              "names")
        if not 2 <= n <= 4096:
            raise ServiceError(ERR_BAD_REQUEST,
                              f"n={n} outside the served range [2, 4096]")
        sid = hashlib.sha256(
            f"{algebra}|{topology}|{n}|{seed}|{engine}".encode()
        ).hexdigest()[:12]
        entry = self._sessions.get(sid)
        if entry is None:
            loop = asyncio.get_running_loop()
            fresh = await loop.run_in_executor(None, self._open, sid, {
                "algebra": algebra, "topology": topology, "n": n,
                "seed": seed, "engine": engine})
            entry = self._sessions.get(sid)
            if entry is None:
                victims = self._admit(fresh)
                # journalled before any await: a mutation of the new
                # session can never reach the journal ahead of its load
                self._journal({"verb": "load", "sid": sid,
                               "params": fresh.params})
                logger.info("loaded session %s: %s", sid, fresh.params)
                for victim in victims:
                    await loop.run_in_executor(None, victim.session.close)
                return self._load_reply(fresh, req.get("id"), reused=False)
            fresh.session.close()  # a concurrent identical load won
        self._sessions.move_to_end(sid)
        return self._load_reply(entry, req.get("id"), reused=True)

    @staticmethod
    def _load_reply(entry: _SessionEntry, req_id: Any,
                    reused: bool) -> Dict[str, Any]:
        return {"ok": True, "verb": "load", "id": req_id,
                "session": entry.sid, "reused": reused,
                "n": entry.network.n,
                "algebra": entry.params["algebra"],
                "topology": entry.params["topology"],
                "engine": entry.params["engine"],
                "version": entry.version,
                "edges": sum(1 for _ in entry.network.present_edges())}

    # -- verbs: set_edge / remove_edge -----------------------------------

    def _entry(self, req: Dict[str, Any]) -> _SessionEntry:
        sid = req.get("session")
        entry = self._sessions.get(sid)
        if entry is None:
            raise ServiceError(
                ERR_NO_SESSION,
                f"no warm session {sid!r} (expired, evicted, or never "
                "loaded); issue a 'load' first")
        self._sessions.move_to_end(sid)
        return entry

    async def _handle_mutation(self, req: Dict[str, Any],
                               verb: str) -> Dict[str, Any]:
        entry = self._entry(req)
        n = entry.network.n
        i, k = _int_field(req, "i"), _int_field(req, "k")
        if not (0 <= i < n and 0 <= k < n):
            raise ServiceError(
                ERR_BAD_REQUEST,
                f"edge ({i}, {k}) outside the 0..{n - 1} node range")
        edge_seed = (_int_field(req, "edge_seed", 0) if verb == "set_edge"
                     else None)
        async with entry.lock:
            dropped = entry.apply(verb, i, k, edge_seed)
            version = entry.version
            # journalled under the lock (journal order == application
            # order per session) and before the reply is sent: an
            # acknowledged mutation is always recoverable.
            record = {"verb": verb, "sid": entry.sid, "i": i, "k": k,
                      "version": version}
            if edge_seed is not None:
                record["edge_seed"] = edge_seed
            self._journal(record)
        logger.info("session %s %s(%d, %d) -> version=%d, "
                    "%d cache entries invalidated",
                    entry.sid, verb, i, k, version, dropped)
        return {"ok": True, "verb": verb, "id": req.get("id"),
                "session": entry.sid, "i": i, "k": k,
                "version": version, "invalidated": dropped}

    # -- verbs: sigma / delta / convergence ------------------------------

    async def _handle_query(self, req: Dict[str, Any],
                            verb: str) -> Dict[str, Any]:
        entry = self._entry(req)
        req_id = req.get("id")
        start_seed = _int_field(req, "start_seed", None)
        include_state = bool(req.get("include_state", False))
        sched_spec: Optional[Dict[str, Any]] = None
        # a reply at most O(n) to build from a σ solve: that solve's
        # max_rounds (None for a delta, a convergence or include_state)
        slice_of: Optional[int] = None
        if verb == "sigma":
            max_rounds = _int_field(req, "max_rounds", 10_000, minimum=0)
            knobs: Tuple = (max_rounds,)
            if not include_state:
                slice_of = max_rounds
            compute = partial(self._compute_sigma, entry, start_seed,
                              max_rounds, include_state)
        elif verb == "routes":
            max_rounds = _int_field(req, "max_rounds", 10_000, minimum=0)
            node = _int_field(req, "node", None)
            dest = _int_field(req, "dest", None)
            if (node is None) == (dest is None):
                raise ServiceError(
                    ERR_BAD_REQUEST,
                    "routes takes exactly one of 'node' (that node's "
                    "routes to every destination) or 'dest' (every "
                    "node's route to that destination)")
            axis = node if node is not None else dest
            if not 0 <= axis < entry.network.n:
                raise ServiceError(
                    ERR_BAD_REQUEST,
                    f"{'node' if node is not None else 'dest'}={axis} out "
                    f"of range for this session's n={entry.network.n}")
            node = axis if node is not None else None
            dest = axis if node is None else None
            knobs = (max_rounds, node, dest)
            slice_of = max_rounds
            compute = partial(self._compute_routes, entry, start_seed,
                              max_rounds, node, dest)
        elif verb == "delta":
            sched_spec = req.get("schedule", {"kind": "round-robin"})
            schedule_from_spec(sched_spec, entry.network.n)  # validate now
            max_steps = _int_field(req, "max_steps", 2_000, minimum=0)
            knobs = (max_steps,)
            compute = partial(self._compute_delta, entry, sched_spec,
                              start_seed, max_steps, include_state)
        else:  # convergence
            n_starts = _int_field(req, "n_starts", 3, minimum=0)
            start_seed = _int_field(req, "seed", 0)  # grid's sampling seed
            max_steps = _int_field(req, "max_steps", 2_000, minimum=0)
            knobs = (n_starts, max_steps)
            compute = partial(self._compute_convergence, entry, start_seed,
                              n_starts, max_steps)
        # the fixed-point cache key from the module docs: topology
        # version + algebra + start + schedule (canonical) + the seed
        # semantics version, plus the verb's own knobs.
        key = (verb, entry.version, entry.params["algebra"], start_seed,
               schedule_cache_key(sched_spec) if sched_spec else None,
               RandomSchedule.SCHEDULE_SEED_VERSION, include_state, knobs)
        # backpressure: a query is "in flight" from admission (it may
        # queue on the session lock) until its reply is built; past the
        # bound the daemon sheds with a typed busy + retry hint instead
        # of buffering unbounded work behind a slow compute.
        if self._inflight >= self.max_inflight:
            self._shed += 1
            raise ServiceError(
                ERR_BUSY,
                f"daemon is at its max_inflight={self.max_inflight} "
                "query bound; retry after the hint",
                retry_after_ms=self._retry_hint_ms())
        self._inflight += 1
        try:
            async with entry.lock:
                cached = entry.cache.get(key)
                if cached is not None:
                    entry.hits += 1
                    entry.cache.move_to_end(key)
                    return dict(cached, id=req_id, cached=True)
                entry.misses += 1
                if slice_of is not None and entry.solve_key(
                        start_seed, slice_of) in entry.state_cache:
                    # the solve is cached: building the reply here costs
                    # less than a round trip to the executor
                    body = compute()
                else:
                    body = await asyncio.get_running_loop() \
                        .run_in_executor(None, compute)
                entry.cache[key] = body
                while len(entry.cache) > self.cache_entries:
                    entry.cache.popitem(last=False)
        finally:
            self._inflight -= 1
        return dict(body, id=req_id, cached=False)

    def _retry_hint_ms(self) -> float:
        """The ``busy`` reply's backoff hint: the recent median request
        latency, clamped to a sane band."""
        lat = [s * 1e3 for s in self._latencies]
        hint = percentile(lat, 50.0) if lat else 50.0
        return round(min(max(hint, 25.0), 2000.0), 3)

    def _solve(self, entry: _SessionEntry, verb: str,
               start_seed: Optional[int], max_rounds: int) -> Tuple:
        """``(SigmaReport, digest, warm)`` of the σ solve at the entry's
        topology version — computed once per ``(version, start_seed,
        max_rounds)`` and shared by ``sigma`` and every ``routes``
        slice through the entry's state cache.

        A default solve (no ``start_seed``) denotes σ from the identity.
        It starts instead from the state of the entry's last converged
        solve, whatever its start (``warm``), when the session certifies
        a unique fixed point (Theorem 7,
        :meth:`~repro.session.RoutingSession.unique_fixed_point`) and
        ``max_rounds`` is at least the bound that proves: σ then reaches
        the same fixed point from any start, so only ``rounds`` and the
        time differ.  A seeded request is never substituted."""
        skey = entry.solve_key(start_seed, max_rounds)
        solved = entry.state_cache.get(skey)
        if solved is not None:
            entry.state_cache.move_to_end(skey)
            return solved
        warm = False
        try:
            if start_seed is None and entry.fixed is not None:
                unique = entry.session.unique_fixed_point()
                warm = unique.holds and max_rounds >= unique.bound
            start = entry.fixed if warm else \
                start_state(entry.network, start_seed)
            report = entry.session.sigma(start, max_rounds=max_rounds)
        except Exception as exc:
            raise ServiceError(ERR_ENGINE,
                               f"{verb} failed: {exc}") from None
        if report.converged:
            entry.fixed = report.state
        solved = entry.state_cache[skey] = (
            report, state_digest(report.state, entry.digest_memo), warm)
        while len(entry.state_cache) > 4:
            entry.state_cache.popitem(last=False)
        return solved

    def _compute_sigma(self, entry: _SessionEntry,
                       start_seed: Optional[int], max_rounds: int,
                       include_state: bool) -> Dict[str, Any]:
        report, digest, warm = self._solve(entry, "sigma", start_seed,
                                           max_rounds)
        body = {"ok": True, "verb": "sigma", "session": entry.sid,
                "version": entry.version,
                "converged": report.converged, "rounds": report.rounds,
                "warm": warm, "engine": report.resolution.chosen,
                "compute_ms": report.elapsed_s * 1e3,
                "digest": digest}
        if include_state:
            body["state"] = state_matrix(report.state)
        return body

    def _compute_routes(self, entry: _SessionEntry,
                        start_seed: Optional[int], max_rounds: int,
                        node: Optional[int],
                        dest: Optional[int]) -> Dict[str, Any]:
        """One row/column of the fixed point as route strings — O(n)
        on the wire against ``include_state``'s O(n²)."""
        report, digest, warm = self._solve(entry, "routes", start_seed,
                                           max_rounds)
        state = report.state
        routes = state.row(node) if node is not None else state.column(dest)
        return {"ok": True, "verb": "routes", "session": entry.sid,
                "version": entry.version, "converged": report.converged,
                "rounds": report.rounds, "warm": warm,
                "node": node, "dest": dest,
                "routes": [str(r) for r in routes],
                "digest": digest}

    def _compute_delta(self, entry: _SessionEntry,
                       sched_spec: Dict[str, Any],
                       start_seed: Optional[int], max_steps: int,
                       include_state: bool) -> Dict[str, Any]:
        schedule = schedule_from_spec(sched_spec, entry.network.n)
        start = start_state(entry.network, start_seed)
        try:
            report = entry.session.delta(schedule, start,
                                         max_steps=max_steps)
        except Exception as exc:
            raise ServiceError(ERR_ENGINE,
                               f"delta failed: {exc}") from None
        body = {"ok": True, "verb": "delta", "session": entry.sid,
                "version": entry.version,
                "converged": report.converged, "steps": report.steps,
                "converged_at": report.converged_at,
                "engine": report.resolution.chosen,
                "compute_ms": report.elapsed_s * 1e3,
                "schedule_seed_version":
                    RandomSchedule.SCHEDULE_SEED_VERSION,
                "digest": state_digest(report.state)}
        if include_state:
            body["state"] = state_matrix(report.state)
        return body

    def _compute_convergence(self, entry: _SessionEntry, seed: int,
                             n_starts: int,
                             max_steps: int) -> Dict[str, Any]:
        try:
            report = entry.session.converges(
                n_starts=n_starts, seed=seed, max_steps=max_steps)
        except Exception as exc:
            raise ServiceError(ERR_ENGINE,
                               f"convergence failed: {exc}") from None
        grid = report.grid
        return {"ok": True, "verb": "convergence", "session": entry.sid,
                "version": entry.version, "absolute": report.absolute,
                "runs": report.runs,
                "distinct_fixed_points": len(report.distinct_fixed_points),
                "max_steps": grid.max_steps,
                "mean_steps": grid.mean_steps,
                "engine": grid.resolution.chosen,
                "compute_ms": grid.elapsed_s * 1e3}

    # -- verbs: health / snapshot ----------------------------------------

    def _handle_health(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Readiness/liveness: lifecycle state + durability lag.

        Served in *every* state (including ``restoring``, before other
        verbs are admitted) so orchestration and load balancers can
        gate on ``state == "ready"``.
        """
        reply = {
            "ok": True, "verb": "health", "id": req.get("id"),
            "state": self._state,
            "durable": self._persist is not None,
            "sessions": len(self._sessions),
            "inflight": self._active_ops,
        }
        if self._persist is not None:
            age = self._persist.last_snapshot_age_s
            reply.update(
                journal_seq=self._persist.journal_seq,
                snapshot_seq=self._persist.snapshot_seq,
                journal_lag=self._persist.journal_lag,
                last_snapshot_age_s=(round(age, 3)
                                     if age is not None else None))
        return reply

    async def _handle_snapshot(self, req: Dict[str, Any]) -> Dict[str, Any]:
        """Force a snapshot now (admin verb; tests and the CI
        restart-recovery job use it to pin the warm cache to disk at a
        deterministic point instead of waiting out the cadence)."""
        if self._persist is None:
            raise ServiceError(
                ERR_BAD_REQUEST,
                "daemon has no durable state (start it with --state-dir "
                "to enable snapshots)")
        await self._write_snapshot()
        return {"ok": True, "verb": "snapshot", "id": req.get("id"),
                "journal_seq": self._persist.snapshot_seq,
                "sessions": len(self._sessions)}

    # -- verb: stats -----------------------------------------------------

    def _handle_stats(self, req: Dict[str, Any]) -> Dict[str, Any]:
        lat = [s * 1e3 for s in self._latencies]
        hits = sum(e.hits for e in self._sessions.values())
        misses = sum(e.misses for e in self._sessions.values())
        total = hits + misses
        return {
            "ok": True, "verb": "stats", "id": req.get("id"),
            "v": SERVICE_VERSION,
            "state": self._state,
            "uptime_s": (perf_counter() - self._started_at
                         if self._started_at else 0.0),
            "requests": self._requests,
            "errors": self._errors,
            "evictions": self._evictions,
            "shed": self._shed,
            "inflight": self._inflight,
            "max_inflight": self.max_inflight,
            "sessions": [
                {"session": e.sid, "version": e.version,
                 "cache_entries": len(e.cache), "hits": e.hits,
                 "misses": e.misses, "mutations": e.mutations,
                 "invalidated": e.invalidated, **e.params}
                for e in self._sessions.values()],
            "cache": {"hits": hits, "misses": misses,
                      "hit_ratio": (hits / total) if total else 0.0},
            "latency_ms": {"count": len(lat),
                           "p50": percentile(lat, 50.0),
                           "p99": percentile(lat, 99.0)},
        }


#: :func:`_int_field`'s default for a field the request must carry
_REQUIRED = object()


def _int_field(req: Dict[str, Any], name: str, default: Any = _REQUIRED,
               minimum: Optional[int] = None) -> Any:
    """The integer request field ``name`` (``default`` when absent or
    null): every integer a request carries is parsed here.  A
    non-integer, a missing required field or a value under ``minimum``
    is the client's error: ``bad-request``, never ``internal``."""
    value = req.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ServiceError(ERR_BAD_REQUEST,
                               f"{req.get('verb')} requires integer {name!r}")
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(ERR_BAD_REQUEST,
                           f"{name!r} must be an integer, got {value!r:.40}")
    if minimum is not None and value < minimum:
        raise ServiceError(ERR_BAD_REQUEST,
                           f"{name!r} must be >= {minimum}, got {value}")
    return value


def _hello_reply(req_id: Any) -> Dict[str, Any]:
    """The ``hello`` reply: the protocol version and the
    :data:`~repro.core.schedule.RandomSchedule.SCHEDULE_SEED_VERSION`
    the daemon's random schedules assume."""
    return {"ok": True, "verb": "hello", "id": req_id,
            "v": SERVICE_VERSION,
            "schedule_seed_version": RandomSchedule.SCHEDULE_SEED_VERSION}


def serve(host: str = "127.0.0.1", port: int = 0, *, engine: str = "auto",
          max_sessions: int = 8, cache_entries: int = 512,
          max_inflight: int = 32, fault_plan=None,
          announce: bool = True, state_dir=None,
          snapshot_interval: float = 30.0, journal_sync_every: int = 8,
          drain_deadline: float = 10.0) -> None:
    """Run a daemon until shutdown (the ``repro.cli serve`` backend)."""
    daemon = RoutingServiceDaemon(
        host, port, engine=engine, max_sessions=max_sessions,
        cache_entries=cache_entries, max_inflight=max_inflight,
        fault_plan=fault_plan, announce=announce, state_dir=state_dir,
        snapshot_interval=snapshot_interval,
        journal_sync_every=journal_sync_every,
        drain_deadline=drain_deadline)
    daemon.run()
