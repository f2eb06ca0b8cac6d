"""Crash-recoverable service state (this PR's tentpole contract).

What must hold, per ``docs/service.md``:

* **journal discipline** — every admitted ``load`` / ``set_edge`` /
  ``remove_edge`` is length-prefixed, checksummed and journalled before
  its reply; a torn tail (short header, short body, crc mismatch) is
  truncated exactly at the tear and everything before it survives;
* **snapshots** — atomic (temp + rename), checksummed, pruned; restore
  walks newest-first until one validates and replays only the journal
  records beyond it;
* **kill -9 recovery** — a SIGKILLed daemon restarted on the same
  ``--state-dir`` serves identical topology versions, bit-identical
  fixed-point digests, and a warm cache (snapshot-covered queries are
  hits on the very first request);
* **graceful drain** — SIGTERM / ``shutdown`` refuses new work with a
  typed ``draining`` error, finishes admitted inflight requests, and
  clients racing the drain see zero non-typed failures;
* **health** — the lifecycle state (``restoring``/``ready``/
  ``draining``), journal lag and snapshot age are observable in every
  state;
* **per-peer delay faults** — an injected daemon-side ``delay`` stalls
  only the targeted peer's connection, never the event loop (the old
  behaviour froze *every* client for the duration).
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.service import (
    ERR_BAD_REQUEST,
    ERR_DRAINING,
    RoutingServiceDaemon,
    ServiceClient,
    ServiceError,
)
from repro.service.persistence import (
    JOURNAL_HEADER,
    SNAPSHOT_FORMAT,
    ServicePersistence,
    cache_key_from_json,
    cache_key_to_json,
)


# ----------------------------------------------------------------------
# 1. Persistence unit layer: journal, torn tails, snapshots
# ----------------------------------------------------------------------


class TestJournal:
    def test_append_restore_roundtrip(self, tmp_path):
        p = ServicePersistence(tmp_path)
        p.append({"verb": "load", "sid": "abc"})
        p.append({"verb": "set_edge", "sid": "abc", "i": 0, "k": 1,
                  "edge_seed": 7, "version": 2})
        p.close()

        q = ServicePersistence(tmp_path)
        data = q.restore()
        assert data["snapshot"] is None and data["torn"] is False
        assert [r["verb"] for r in data["tail"]] == ["load", "set_edge"]
        assert [r["seq"] for r in data["tail"]] == [1, 2]
        # the sequence continues where the journal left off
        assert q.append({"verb": "remove_edge"}) == 3
        q.close()

    def test_torn_tail_truncated_exactly_at_the_tear(self, tmp_path):
        p = ServicePersistence(tmp_path)
        for i in range(3):
            p.append({"verb": "set_edge", "i": i})
        p.close()
        path = tmp_path / "journal.wal"
        blob = path.read_bytes()
        # tear the last record mid-body: its header survives intact
        path.write_bytes(blob[:-3])

        q = ServicePersistence(tmp_path)
        data = q.restore()
        assert data["torn"] is True
        assert [r["i"] for r in data["tail"]] == [0, 1]
        assert q.journal_seq == 2
        q.close()
        # the file was truncated at the tear: a second restore is clean
        r = ServicePersistence(tmp_path)
        again = r.restore()
        assert again["torn"] is False
        assert [rec["i"] for rec in again["tail"]] == [0, 1]
        r.close()

    def test_crc_mismatch_is_a_tear(self, tmp_path):
        p = ServicePersistence(tmp_path)
        p.append({"verb": "load", "sid": "x"})
        p.append({"verb": "set_edge", "i": 5})
        p.close()
        path = tmp_path / "journal.wal"
        blob = bytearray(path.read_bytes())
        blob[-2] ^= 0xFF                 # flip a bit in the last body
        path.write_bytes(bytes(blob))

        q = ServicePersistence(tmp_path)
        data = q.restore()
        assert data["torn"] is True
        assert [r["verb"] for r in data["tail"]] == ["load"]
        q.close()

    def test_record_framing_is_length_prefixed_and_checksummed(self,
                                                               tmp_path):
        p = ServicePersistence(tmp_path)
        p.append({"verb": "load", "sid": "frame-check"})
        p.close()
        blob = (tmp_path / "journal.wal").read_bytes()
        length, crc = JOURNAL_HEADER.unpack_from(blob, 0)
        body = blob[JOURNAL_HEADER.size:JOURNAL_HEADER.size + length]
        assert zlib.crc32(body) == crc
        rec = json.loads(body)
        assert rec["sid"] == "frame-check" and rec["seq"] == 1


class TestSnapshots:
    def test_checksum_mismatch_falls_back_to_older_snapshot(self,
                                                            tmp_path):
        p = ServicePersistence(tmp_path)
        p.append({"verb": "load", "sid": "a"})
        p.snapshot([{"sid": "a", "version": 1}])
        p.append({"verb": "set_edge", "sid": "a"})
        newest = p.snapshot([{"sid": "a", "version": 2}])
        p.close()
        # corrupt the newest snapshot's payload
        text = newest.read_text()
        newest.write_text(text.replace('"version":2', '"version":9'))

        q = ServicePersistence(tmp_path)
        data = q.restore()
        # the corrupted newest is skipped; the older one validates and
        # the journal record beyond it replays
        assert data["snapshot"]["sessions"] == [{"sid": "a", "version": 1}]
        assert [r["verb"] for r in data["tail"]] == ["set_edge"]
        q.close()

    def test_snapshots_are_pruned(self, tmp_path):
        p = ServicePersistence(tmp_path, keep_snapshots=3)
        for i in range(5):
            p.append({"verb": "set_edge", "i": i})
            p.snapshot([])
        files = sorted(f.name for f in tmp_path.glob("snapshot-*.json"))
        assert len(files) == 3
        assert files[-1] == "snapshot-%012d.json" % 5
        p.close()

    def test_unknown_format_is_skipped(self, tmp_path):
        p = ServicePersistence(tmp_path)
        p.append({"verb": "load"})
        path = p.snapshot([])
        p.close()
        payload = json.loads(path.read_text())
        payload["format"] = SNAPSHOT_FORMAT + 1
        path.write_text(json.dumps(payload))
        q = ServicePersistence(tmp_path)
        data = q.restore()
        assert data["snapshot"] is None
        assert len(data["tail"]) == 1    # the journal still restores
        q.close()

    def test_cache_key_json_roundtrip(self):
        key = ("sigma", 3, "hop-count", None, None, 1, True,
               ("max_rounds", 10_000))
        assert cache_key_from_json(cache_key_to_json(key)) == key
        assert cache_key_to_json(key)[-1] == ["max_rounds", 10_000]


# ----------------------------------------------------------------------
# 2. In-process daemon: restart recovery, health, drain
# ----------------------------------------------------------------------


def _run_daemon(**kw):
    d = RoutingServiceDaemon(host="127.0.0.1", port=0, max_sessions=4,
                             **kw)
    t = threading.Thread(target=d.run, daemon=True)
    t.start()
    assert d.wait_ready(15), "daemon did not come up"
    return d, t


def _stop_daemon(d, t):
    d.request_shutdown()
    t.join(15)
    assert not t.is_alive(), "daemon did not shut down"


def _wait_restore(d, timeout=30.0):
    """The socket opens before the restore finishes; wait for ready."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if d._state == "ready":
            return
        time.sleep(0.02)
    raise AssertionError(f"daemon stuck in state {d._state!r}")


class TestRestartRecovery:
    def test_clean_restart_restores_versions_and_cache(self, tmp_path):
        d1, t1 = _run_daemon(state_dir=tmp_path)
        with ServiceClient(port=d1.port) as c:
            sid = c.load("hop-count", n=10, topology="random",
                         seed=3)["session"]
            c.set_edge(sid, 0, 1, edge_seed=7)
            v = c.set_edge(sid, 2, 3, edge_seed=11)["version"]
            first = c.sigma(sid)
            assert first["cached"] is False
        _stop_daemon(d1, t1)             # drain writes a final snapshot

        d2, t2 = _run_daemon(state_dir=tmp_path)
        try:
            _wait_restore(d2)
            with ServiceClient(port=d2.port) as c:
                health = c.health()
                assert health["durable"] is True
                assert health["state"] == "ready"
                # same params -> same sid; version survived the restart
                reply = c.load("hop-count", n=10, topology="random",
                               seed=3)
                assert reply["session"] == sid
                assert reply["version"] == v
                # the cache came back warm: first post-restart query
                # is already a hit, digest bit-identical
                again = c.sigma(sid)
                assert again["cached"] is True
                assert again["digest"] == first["digest"]
        finally:
            _stop_daemon(d2, t2)

    def test_journal_tail_replays_past_the_snapshot(self, tmp_path):
        d1, t1 = _run_daemon(state_dir=tmp_path)
        with ServiceClient(port=d1.port) as c:
            sid = c.load("shortest", n=8, topology="ring",
                         seed=1)["session"]
            c.set_edge(sid, 1, 2, edge_seed=5)
            c.snapshot()                 # snapshot covers one mutation
            c.set_edge(sid, 3, 4, edge_seed=9)
            v = c.remove_edge(sid, 1, 2)["version"]
            digest = c.sigma(sid)["digest"]
        _stop_daemon(d1, t1)
        # the clean drain wrote a final snapshot covering everything;
        # delete it so the restore must fall back to the explicit
        # snapshot and replay the two tail mutations from the journal
        newest = sorted(tmp_path.glob("snapshot-*.json"))[-1]
        newest.unlink()

        d2, t2 = _run_daemon(state_dir=tmp_path)
        try:
            with ServiceClient(port=d2.port) as c:
                reply = c.load("shortest", n=8, topology="ring",
                               seed=1)
                assert reply["session"] == sid
                assert reply["version"] == v
                assert c.sigma(sid)["digest"] == digest
        finally:
            _stop_daemon(d2, t2)


class TestHealth:
    def test_health_without_state_dir(self):
        d, t = _run_daemon()
        try:
            with ServiceClient(port=d.port) as c:
                health = c.health()
                assert health["state"] == "ready"
                assert health["durable"] is False
                assert "journal_seq" not in health
                # snapshot verb needs a state dir: typed rejection
                with pytest.raises(ServiceError) as exc:
                    c.snapshot()
                assert exc.value.code == ERR_BAD_REQUEST
        finally:
            _stop_daemon(d, t)

    def test_health_reports_journal_lag_and_snapshot_age(self, tmp_path):
        d, t = _run_daemon(state_dir=tmp_path)
        try:
            with ServiceClient(port=d.port) as c:
                sid = c.load("hop-count", n=8)["session"]
                c.set_edge(sid, 0, 1, edge_seed=3)
                health = c.health()
                assert health["durable"] is True
                assert health["journal_seq"] >= 2   # load + mutation
                assert health["journal_lag"] >= 2
                c.snapshot()
                health = c.health()
                assert health["journal_lag"] == 0
                assert health["snapshot_seq"] == health["journal_seq"]
                assert health["last_snapshot_age_s"] is not None
                assert c.stats()["state"] == "ready"
        finally:
            _stop_daemon(d, t)


class TestGracefulDrain:
    def test_draining_error_is_typed_with_retry_hint(self, tmp_path):
        d, t = _run_daemon(state_dir=tmp_path, drain_deadline=10.0)
        with ServiceClient(port=d.port) as c:
            sid = c.load("hop-count", n=8)["session"]
            c.sigma(sid)

            # pin one admitted op open so the drain cannot finish while
            # we probe, then flip to draining on the loop thread: new
            # work must earn the typed error, not a hang or a close
            def hold():
                d._active_ops += 1
                d._begin_drain()
            d._loop.call_soon_threadsafe(hold)
            deadline = time.monotonic() + 5.0
            code = None
            while time.monotonic() < deadline:
                try:
                    c.sigma(sid, start_seed=99)
                except ServiceError as exc:
                    code = exc.code
                    assert exc.retry_after_ms is not None
                    break
                time.sleep(0.01)
            assert code == ERR_DRAINING
            assert d._state == "draining"
        # release the pinned op: the drain completes and the loop exits
        d._loop.call_soon_threadsafe(
            lambda: setattr(d, "_active_ops", d._active_ops - 1))
        t.join(15)
        assert not t.is_alive()

    def test_drain_under_load_zero_client_failures(self, tmp_path):
        d, t = _run_daemon(state_dir=tmp_path, drain_deadline=10.0)
        with ServiceClient(port=d.port) as c:
            sid = c.load("hop-count", n=10)["session"]
            c.sigma(sid)
        drain_signalled = threading.Event()
        failures, drained, served = [], [], [0]
        lock = threading.Lock()

        def client_loop(worker):
            try:
                with ServiceClient(port=d.port, timeout=15,
                                   retries=3) as c:
                    for q in range(2000):
                        try:
                            c.sigma(sid, start_seed=(worker * 977 + q) % 5)
                            with lock:
                                served[0] += 1
                        except ServiceError as exc:
                            if exc.code == ERR_DRAINING:
                                drained.append(worker)
                                return
                            raise
            except Exception as exc:
                if drain_signalled.is_set():
                    # the daemon finished draining between requests:
                    # a closed connection after the signal is drain
                    drained.append(worker)
                else:
                    failures.append((worker, repr(exc)))

        threads = [threading.Thread(target=client_loop, args=(i,))
                   for i in range(8)]
        for th in threads:
            th.start()
        time.sleep(0.4)                  # let the load ramp up
        drain_signalled.set()
        d.request_shutdown()
        for th in threads:
            th.join(30)
        t.join(30)
        assert failures == [], f"clients failed before drain: {failures}"
        assert served[0] > 0
        assert not t.is_alive()


# ----------------------------------------------------------------------
# 3. kill -9 + restart: the subprocess crash-recovery matrix
# ----------------------------------------------------------------------


def _spawn_serve(state_dir, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", str(state_dir), *extra],
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    m = re.search(r"listening on (\S+):(\d+)", line)
    assert m, f"unparseable announce line: {line!r}"
    return proc, m.group(1), int(m.group(2))


def _wait_ready(host, port, timeout=30.0):
    """Poll ``health`` until the daemon reports ``ready`` (it serves
    ``hello``/``health`` while still ``restoring``)."""
    deadline = time.monotonic() + timeout
    last = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(host, port, timeout=5) as c:
                last = c.health()
                if last["state"] == "ready":
                    return last
        except (OSError, ServiceError):
            pass
        time.sleep(0.05)
    raise AssertionError(f"daemon never became ready (last: {last})")


def _kill9(proc):
    proc.stdout.close()
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=15)


class TestKill9Recovery:
    def test_sigkill_recovers_warm_cache_and_versions(self, tmp_path):
        proc, host, port = _spawn_serve(tmp_path)
        try:
            with ServiceClient(host, port) as c:
                sid = c.load("hop-count", n=12, topology="random",
                             seed=5)["session"]
                c.set_edge(sid, 0, 3, edge_seed=21)
                v = c.set_edge(sid, 4, 7, edge_seed=8)["version"]
                first = c.sigma(sid)
                assert first["cached"] is False
                c.snapshot()             # cache + versions hit the disk
            _kill9(proc)

            proc, host, port = _spawn_serve(tmp_path)
            _wait_ready(host, port)
            with ServiceClient(host, port) as c:
                reply = c.load("hop-count", n=12, topology="random",
                               seed=5)
                assert reply["session"] == sid
                assert reply["version"] == v
                again = c.sigma(sid)
                assert again["cached"] is True      # warm from disk
                assert again["digest"] == first["digest"]
                c.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()

    def test_sigkill_mid_mutation_stream_replays_the_tail(self,
                                                          tmp_path):
        proc, host, port = _spawn_serve(tmp_path,
                                        "--journal-sync-every", "1")
        try:
            with ServiceClient(host, port) as c:
                sid = c.load("shortest", n=10, topology="random",
                             seed=2)["session"]
                c.set_edge(sid, 1, 2, edge_seed=4)
                c.snapshot()
                # mutations past the snapshot live only in the journal
                c.set_edge(sid, 3, 5, edge_seed=6)
                v = c.remove_edge(sid, 1, 2)["version"]
                digest = c.sigma(sid)["digest"]
            _kill9(proc)                 # mid-stream: no drain snapshot

            proc, host, port = _spawn_serve(tmp_path)
            _wait_ready(host, port)
            with ServiceClient(host, port) as c:
                reply = c.load("shortest", n=10, topology="random",
                               seed=2)
                assert reply["session"] == sid
                assert reply["version"] == v        # tail replayed
                # recomputed (the cache body died with the process)
                # but bit-identical to the pre-kill answer
                assert c.sigma(sid)["digest"] == digest
                c.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()

    def test_torn_journal_tail_recovers_to_the_last_intact_record(
            self, tmp_path):
        proc, host, port = _spawn_serve(tmp_path,
                                        "--journal-sync-every", "1")
        try:
            with ServiceClient(host, port) as c:
                sid = c.load("hop-count", n=8, topology="ring",
                             seed=1)["session"]
                v = c.set_edge(sid, 0, 1, edge_seed=9)["version"]
            _kill9(proc)
            # simulate the torn write a crash can leave behind: a
            # half-flushed record (valid header, short body)
            wal = tmp_path / "journal.wal"
            with open(wal, "ab") as fh:
                body = b'{"verb": "set_edge", "seq": 99}'
                fh.write(JOURNAL_HEADER.pack(len(body) + 40,
                                             zlib.crc32(body)) + body)

            proc, host, port = _spawn_serve(tmp_path)
            _wait_ready(host, port)
            with ServiceClient(host, port) as c:
                reply = c.load("hop-count", n=8, topology="ring", seed=1)
                assert reply["session"] == sid
                assert reply["version"] == v        # torn record dropped
                c.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()


# ----------------------------------------------------------------------
# 4. Per-peer delay faults: one slow peer never stalls the fleet
# ----------------------------------------------------------------------


class TestPerPeerDelay:
    def test_delayed_peer_does_not_stall_other_connections(self):
        # one single-shot 800ms recv delay; whichever client fires it
        # sleeps — the OTHER client's requests must stay fast (before
        # the fix, the daemon slept on the event loop and every
        # connection froze for the full delay)
        plan = {"seed": 1, "rules": [{
            "kind": "delay", "role": "daemon", "op": "recv",
            "msg_index": 1, "delay_ms": 800.0, "times": 1}]}
        d, t = _run_daemon(fault_plan=plan)
        try:
            slow = ServiceClient(port=d.port, timeout=15)
            fast = ServiceClient(port=d.port, timeout=15)
            box = {}

            def fire():
                t0 = time.perf_counter()
                slow.stats()             # msg_index 1: eats the delay
                box["slow_s"] = time.perf_counter() - t0

            th = threading.Thread(target=fire)
            th.start()
            time.sleep(0.15)             # the delayed frame is in flight
            t0 = time.perf_counter()
            fast.stats()
            fast_s = time.perf_counter() - t0
            th.join(15)
            slow.close()
            fast.close()
            assert box["slow_s"] >= 0.6, \
                f"delay rule never fired (slow={box['slow_s']:.3f}s)"
            assert fast_s < 0.4, \
                f"fast peer stalled {fast_s:.3f}s behind the delayed one"
        finally:
            _stop_daemon(d, t)
