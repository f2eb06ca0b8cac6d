"""Routing-service daemon coverage (the PR's tentpole contract).

What must hold, per ``docs/service.md``:

* **cache discipline** — identical queries hit (O(1)); a mutation bumps
  the topology version and invalidates exactly the affected session's
  entries (hit → mutate → miss → hit), flowing into the incremental
  engine's dirty sets rather than rebuilding the network;
* **serialization** — concurrent clients on one warm session serialize
  safely: one compute, everyone else a cache hit, no torn state;
* **failure semantics** — malformed frames, version-skewed hellos and
  unknown verbs earn *typed* error replies (stable code vocabulary) and
  never kill the server;
* **bit identity** — a sigma report served over TCP equals a direct
  :class:`~repro.session.RoutingSession` run on an identically-built
  network, route for route;
* the ``serve`` CLI announces a parseable endpoint and exits 0 on the
  ``shutdown`` verb.
"""

import asyncio
import json
import random
import re
import socket
import subprocess
import sys
import threading

import pytest

from repro.service import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_HELLO_REQUIRED,
    ERR_INTERNAL,
    ERR_MALFORMED,
    ERR_NO_SESSION,
    ERR_UNKNOWN_VERB,
    ERR_VERSION_SKEW,
    SERVICE_VERSION,
    AsyncServiceClient,
    RoutingServiceDaemon,
    ServiceClient,
    ServiceError,
    state_digest,
)
from repro.service.protocol import percentile, schedule_from_spec
from repro.session import RoutingSession


@pytest.fixture()
def daemon():
    """One daemon on an ephemeral port, driven from a background
    thread, torn down via the thread-safe shutdown trigger."""
    d = RoutingServiceDaemon(host="127.0.0.1", port=0, max_sessions=4)
    t = threading.Thread(target=d.run, daemon=True)
    t.start()
    assert d.wait_ready(15), "daemon did not come up"
    yield d
    d.request_shutdown()
    t.join(15)
    assert not t.is_alive(), "daemon did not shut down"


def _raw_roundtrip(port, frames):
    """Send pre-encoded lines on a fresh socket; return decoded replies
    (stops when the server closes the connection)."""
    replies = []
    with socket.create_connection(("127.0.0.1", port), timeout=15) as sock:
        f = sock.makefile("rb")
        for frame in frames:
            # After a fatal-code reply the server closes while our next
            # frame may still be in flight; the kernel answers with RST,
            # so both the send and the read can raise instead of seeing
            # a clean EOF.  Either way the connection is closed: stop.
            try:
                sock.sendall(frame)
                line = f.readline()
            except ConnectionError:
                break
            if not line:
                break
            replies.append(json.loads(line))
    return replies


def _hello():
    return (json.dumps({"verb": "hello", "v": SERVICE_VERSION}) +
            "\n").encode()


# ----------------------------------------------------------------------
# 1. Cache discipline: hit → mutate → miss → hit
# ----------------------------------------------------------------------


class TestCacheInvalidation:
    def test_hit_mutate_miss_hit(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            load = c.load("hop-count", n=16, topology="ring", seed=2)
            sid = load["session"]
            v0 = load["version"]

            first = c.sigma(sid)
            assert first["cached"] is False
            again = c.sigma(sid)
            assert again["cached"] is True
            assert again["digest"] == first["digest"]

            mut = c.set_edge(sid, 0, 5, edge_seed=9)
            assert mut["version"] > v0          # version moved
            assert mut["invalidated"] >= 1      # old entry dropped

            after = c.sigma(sid)
            assert after["cached"] is False     # precise miss
            assert after["version"] == mut["version"]
            assert after["digest"] != first["digest"]
            warm = c.sigma(sid)
            assert warm["cached"] is True
            assert warm["digest"] == after["digest"]

    def test_mutation_only_touches_its_session(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            a = c.load("hop-count", n=12, topology="ring")["session"]
            b = c.load("shortest", n=12, topology="star")["session"]
            c.sigma(a), c.sigma(b)
            c.remove_edge(a, 0, 1)
            assert c.sigma(a)["cached"] is False   # invalidated
            assert c.sigma(b)["cached"] is True    # untouched

    def test_noop_write_keeps_the_cache(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            load = c.load("hop-count", n=12, topology="ring")
            sid = load["session"]
            first = c.sigma(sid)
            # a ring has no arc (0, 6): removing it changes nothing
            mut = c.remove_edge(sid, 0, 6)
            assert mut["version"] == load["version"]
            assert mut["invalidated"] == 0
            again = c.sigma(sid)
            assert again["cached"] is True
            assert again["digest"] == first["digest"]

    def test_distinct_params_are_distinct_entries(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=12, topology="ring")["session"]
            ident = c.sigma(sid)
            seeded = c.sigma(sid, start_seed=3)
            assert seeded["cached"] is False
            assert c.sigma(sid, start_seed=3)["cached"] is True
            # both converge to the same σ fixed point (Theorem 7 on
            # this strictly-increasing algebra), from different starts
            assert seeded["digest"] == ident["digest"]

    def test_delta_cache_keys_include_schedule(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=12, topology="ring")["session"]
            r1 = c.delta(sid, schedule={"kind": "random", "seed": 1})
            assert c.delta(sid,
                           schedule={"kind": "random",
                                     "seed": 1})["cached"] is True
            r2 = c.delta(sid, schedule={"kind": "random", "seed": 2})
            assert r2["cached"] is False
            assert r1["converged"] and r2["converged"]


# ----------------------------------------------------------------------
# 2. Concurrent clients on one warm session serialize safely
# ----------------------------------------------------------------------


class TestConcurrency:
    def test_concurrent_identical_queries_one_compute(self, daemon):
        clients = 12

        async def drive():
            conns = await asyncio.gather(*[
                AsyncServiceClient.connect("127.0.0.1", daemon.port)
                for _ in range(clients)])
            try:
                sids = await asyncio.gather(*[
                    c.load("hop-count", n=24, topology="random", seed=4)
                    for c in conns])
                sid = sids[0]["session"]
                assert all(r["session"] == sid for r in sids)
                reports = await asyncio.gather(*[
                    c.sigma(sid) for c in conns])
                return reports
            finally:
                await asyncio.gather(*[c.close() for c in conns])

        reports = asyncio.run(drive())
        digests = {r["digest"] for r in reports}
        assert len(digests) == 1                     # no torn state
        misses = [r for r in reports if not r["cached"]]
        assert len(misses) == 1                      # exactly one compute
        with ServiceClient(port=daemon.port) as c:
            stats = c.stats()
            assert stats["cache"]["hits"] >= clients - 1
            assert stats["cache"]["hit_ratio"] > 0.5
            assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]

    def test_interleaved_mutations_stay_consistent(self, daemon):
        async def drive():
            reader = await AsyncServiceClient.connect(
                "127.0.0.1", daemon.port)
            writer = await AsyncServiceClient.connect(
                "127.0.0.1", daemon.port)
            try:
                sid = (await reader.load("hop-count", n=16,
                                         topology="ring"))["session"]

                async def mutate():
                    for k in range(4):
                        await writer.set_edge(sid, 0, 4 + k, edge_seed=k)

                async def query():
                    out = []
                    for _ in range(6):
                        out.append(await reader.sigma(sid))
                    return out

                results, _ = await asyncio.gather(query(), mutate())
                return sid, results
            finally:
                await reader.close()
                await writer.close()

        sid, results = asyncio.run(drive())
        # queries serialize with mutations on the session lock: each
        # reply carries the topology version it was computed against,
        # and one connection sees those versions monotonically
        versions = [r["version"] for r in results]
        assert versions == sorted(versions)
        # ...and the final topology's answer is stable and cacheable
        with ServiceClient(port=daemon.port) as c:
            final = c.sigma(sid)
            again = c.sigma(sid)
            assert again["cached"] is True
            assert again["digest"] == final["digest"]


# ----------------------------------------------------------------------
# 3. Failure semantics: typed errors, server survives
# ----------------------------------------------------------------------


class TestFailureSemantics:
    def test_version_skew_typed_error_then_close(self, daemon):
        bad_hello = (json.dumps({"verb": "hello", "v": 999}) +
                     "\n").encode()
        replies = _raw_roundtrip(daemon.port, [bad_hello, _hello()])
        assert len(replies) == 1                  # connection dropped
        err = replies[0]["error"]
        assert err["code"] == ERR_VERSION_SKEW
        assert err["server_version"] == SERVICE_VERSION

    def test_hello_required_first(self, daemon):
        frames = [(json.dumps({"verb": "stats"}) + "\n").encode()]
        replies = _raw_roundtrip(daemon.port, frames)
        assert replies[0]["error"]["code"] == ERR_HELLO_REQUIRED

    def test_malformed_frame_is_rejected_loudly(self, daemon):
        replies = _raw_roundtrip(
            daemon.port, [_hello(), b"this is not json\n"])
        assert replies[0]["ok"] is True
        assert replies[1]["error"]["code"] == ERR_MALFORMED
        replies = _raw_roundtrip(daemon.port, [_hello(), b"[1, 2, 3]\n"])
        assert replies[1]["error"]["code"] == ERR_MALFORMED

    def test_typed_request_errors_keep_connection_open(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            with pytest.raises(ServiceError) as exc:
                c.request({"verb": "warp"})
            assert exc.value.code == ERR_UNKNOWN_VERB
            with pytest.raises(ServiceError) as exc:
                c.sigma("no-such-session")
            assert exc.value.code == ERR_NO_SESSION
            with pytest.raises(ServiceError) as exc:
                c.load("no-such-algebra", n=8)
            assert exc.value.code == ERR_BAD_REQUEST
            with pytest.raises(ServiceError) as exc:
                c.request({"verb": "load", "algebra": "hop-count",
                           "n": "many"})
            assert exc.value.code == ERR_BAD_REQUEST
            sid = c.load("hop-count", n=8, topology="ring")["session"]
            with pytest.raises(ServiceError) as exc:
                c.set_edge(sid, 0, 99)
            assert exc.value.code == ERR_BAD_REQUEST
            with pytest.raises(ServiceError) as exc:
                c.delta(sid, schedule={"kind": "lunar"})
            assert exc.value.code == ERR_BAD_REQUEST
            # ...and the very same connection still serves queries
            assert c.sigma(sid)["converged"] is True

    @pytest.mark.parametrize("verb,field,bad", [
        ("load", "n", "many"),
        ("load", "seed", 1.5),
        ("set_edge", "i", "zero"),
        ("set_edge", "edge_seed", "nine"),
        ("remove_edge", "k", None),
        ("sigma", "max_rounds", "lots"),
        ("sigma", "max_rounds", -3),
        ("sigma", "start_seed", True),
        ("routes", "node", "first"),
        ("routes", "dest", 2.0),
        ("routes", "max_rounds", -1),
        ("delta", "max_steps", -1),
        ("delta", "max_steps", [5]),
        ("convergence", "n_starts", "three"),
        ("convergence", "n_starts", -2),
        ("convergence", "seed", {"s": 1}),
        ("convergence", "max_steps", -5),
    ])
    def test_invalid_integer_field_is_a_bad_request(self, tmp_path, verb,
                                                    field, bad):
        """Every integer request field is parsed by one helper: a value
        that is not a JSON integer, a missing required one, or a
        negative round, step or start budget is ``bad-request`` — not
        ``internal``, not ``engine-error``, never ``ok`` — the
        connection stays open, and nothing is journalled or cached."""
        d = RoutingServiceDaemon(host="127.0.0.1", port=0, max_sessions=4,
                                 state_dir=tmp_path)
        t = threading.Thread(target=d.run, daemon=True)
        t.start()
        try:
            assert d.wait_ready(15), "daemon did not come up"
            wal = tmp_path / "journal.wal"
            with ServiceClient(port=d.port) as c:
                sid = c.load("hop-count", n=8, topology="ring")["session"]
                journalled = wal.stat().st_size
                req = {"load": {"algebra": "hop-count", "n": 8},
                       "set_edge": {"i": 0, "k": 3, "edge_seed": 1},
                       "remove_edge": {"i": 0, "k": 1},
                       "routes": {"dest": 1}}.get(verb, {})
                req = dict(req, verb=verb, session=sid)
                if bad is None:
                    req.pop(field)
                else:
                    req[field] = bad
                with pytest.raises(ServiceError) as exc:
                    c.request(req)
                assert exc.value.code == ERR_BAD_REQUEST, exc.value
                assert repr(field) in exc.value.message
                assert wal.stat().st_size == journalled
                entry = d._sessions[sid]
                assert not entry.cache and not entry.state_cache
                assert entry.mutation_log == []
                assert len(d._sessions) == 1
                # ...and the very same connection still serves queries
                assert c.sigma(sid)["converged"] is True
        finally:
            d.request_shutdown()
            t.join(15)
        assert not t.is_alive(), "daemon did not shut down"

    def test_bad_clients_do_not_kill_the_server(self, daemon):
        for frames in ([b"\x00\xff garbage\n"],
                       [(json.dumps({"verb": "hello", "v": 0}) +
                         "\n").encode()],
                       [b'"just a string"\n']):
            _raw_roundtrip(daemon.port, frames)
        with ServiceClient(port=daemon.port) as c:   # still alive
            sid = c.load("hop-count", n=8, topology="line")["session"]
            assert c.sigma(sid)["converged"] is True


# ----------------------------------------------------------------------
# 4. Bit identity across the service boundary
# ----------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("algebra,topology", [
        ("hop-count", "random"),
        ("shortest", "ring"),
        ("bgplite", "random"),
    ])
    def test_sigma_report_equals_direct_session(self, daemon, algebra,
                                                topology):
        n, seed = 14, 6
        with ServiceClient(port=daemon.port) as c:
            sid = c.load(algebra, n=n, topology=topology,
                         seed=seed)["session"]
            served = c.sigma(sid, start_seed=11, include_state=True)
        from repro.cli import build_network
        from repro.service.protocol import start_state, state_matrix
        network, _factory = build_network(algebra, topology, n, seed)
        with RoutingSession(network) as session:
            direct = session.sigma(start_state(network, 11))
        assert served["converged"] == direct.converged
        assert served["rounds"] == direct.rounds
        assert served["digest"] == state_digest(direct.state)
        assert served["state"] == state_matrix(direct.state)

    def test_delta_digest_matches_direct_session(self, daemon):
        n, seed = 12, 3
        spec = {"kind": "random", "seed": 7, "max_delay": 4}
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=n, topology="random",
                         seed=seed)["session"]
            served = c.delta(sid, schedule=spec, max_steps=600)
        from repro.cli import build_network
        network, _factory = build_network("hop-count", "random", n, seed)
        with RoutingSession(network) as session:
            direct = session.delta(schedule_from_spec(spec, n),
                                   max_steps=600)
        assert served["converged"] == direct.converged
        assert served["steps"] == direct.steps
        assert served["digest"] == state_digest(direct.state)
        assert (served["schedule_seed_version"] ==
                direct.schedule_seed_version)


def _mirror(algebra, topology, n, seed, writes):
    """The network a daemon session holds after ``writes`` (its
    ``[verb, i, k, edge_seed]`` records), built the way the daemon
    builds and mutates it."""
    from repro.cli import build_network
    network, factory = build_network(algebra, topology, n, seed)
    for verb, i, k, edge_seed in writes:
        if verb == "set_edge":
            network.set_edge(i, k, factory(random.Random(edge_seed), i, k))
        else:
            network.remove_edge(i, k)
    return network


class TestWarmSolve:
    """A default ``sigma``/``routes`` solve after a write starts from the
    session's last fixed point when Theorem 7 holds (``warm``); its
    digest and state are the cold solve's, its ``rounds`` its own."""

    LOAD = ("hop-count", "random", 16, 4)

    def _load(self, c):
        algebra, topology, n, seed = self.LOAD
        return c.load(algebra, n=n, topology=topology, seed=seed)["session"]

    def _writes(self, c, sid, count, rng):
        net = _mirror(*self.LOAD, [])
        arcs = sorted(net.present_edges())
        writes = []
        for step in range(count):
            i, k = arcs[rng.randrange(len(arcs))]
            if step % 2:
                edge_seed = rng.randrange(1 << 20)
                c.set_edge(sid, i, k, edge_seed=edge_seed)
                writes.append(["set_edge", i, k, edge_seed])
            else:
                c.remove_edge(sid, i, k)
                writes.append(["remove_edge", i, k, None])
        return writes

    def test_default_solves_after_writes_are_warm(self, daemon):
        from repro.service.protocol import state_matrix

        rng = random.Random(5)
        writes = []
        with ServiceClient(port=daemon.port) as c:
            sid = self._load(c)
            first = c.sigma(sid)
            assert first["warm"] is False          # nothing to start from
            for _ in range(6):
                writes += self._writes(c, sid, 1, rng)
                served = c.sigma(sid, include_state=True)
                routes = c.routes(sid, node=2)
                net = _mirror(*self.LOAD, writes)
                cold = RoutingSession(net, "naive").sigma()
                assert served["warm"] is True and routes["warm"] is True
                assert served["cached"] is False
                assert served["converged"] is True
                assert served["digest"] == routes["digest"] == \
                    state_digest(cold.state)
                assert served["state"] == state_matrix(cold.state)
                assert served["rounds"] <= 16       # size − 1 (Theorem 4)

    def test_no_certificate_or_a_short_budget_solves_cold(self, daemon):
        """With a non-increasing arc installed the capability refuses,
        and with ``max_rounds`` below its bound the gate does: the
        solve starts from the identity, ``rounds`` and all."""
        from repro.core.algebra import FunctionEdge

        rng = random.Random(9)
        with ServiceClient(port=daemon.port) as c:
            sid = self._load(c)
            c.sigma(sid)
            writes = self._writes(c, sid, 1, rng)
            size = 17                               # hop-count<16>: 0..16
            short = c.sigma(sid, max_rounds=size - 1)
            net = _mirror(*self.LOAD, writes)
            ref = RoutingSession(net, "naive").sigma(max_rounds=size - 1)
            assert short["warm"] is False
            assert (short["rounds"], short["digest"]) == \
                (ref.rounds, state_digest(ref.state))
            assert c.sigma(sid, max_rounds=size)["warm"] is True
            # the next set_edge installs an arc that maps every route
            # to itself: not strictly increasing
            entry = daemon._sessions[sid]
            entry.factory = lambda _rng, _i, _k: FunctionEdge(
                lambda route: route, "stay")
            i, k = sorted(net.present_edges())[0]
            c.set_edge(sid, i, k, edge_seed=1)
            assert entry.session.unique_fixed_point().code == \
                "not-strictly-increasing"
            served = c.sigma(sid)
            routes = c.routes(sid, dest=0)
            net.set_edge(i, k, FunctionEdge(lambda route: route, "stay"))
            ref = RoutingSession(net, "naive").sigma()
            assert served["warm"] is False and routes["warm"] is False
            assert (served["rounds"], served["digest"]) == \
                (ref.rounds, state_digest(ref.state))

    def test_a_seeded_request_is_never_substituted(self, daemon):
        from repro.service.protocol import start_state

        with ServiceClient(port=daemon.port) as c:
            sid = self._load(c)
            c.sigma(sid)
            writes = self._writes(c, sid, 2, random.Random(2))
            served = c.sigma(sid, start_seed=3)
        net = _mirror(*self.LOAD, writes)
        ref = RoutingSession(net, "naive").sigma(start_state(net, 3))
        assert served["warm"] is False
        assert (served["rounds"], served["digest"]) == \
            (ref.rounds, state_digest(ref.state))

    def test_a_default_solve_after_a_seeded_one_seeds_warm(
            self, daemon, monkeypatch):
        """A seeded solve's fixed point is the engine's certificate, and
        under Theorem 7 as good a start as any: the next default solve
        after a write starts from it and seeds warm on the codes rung
        (one first round over the written rows only)."""
        from repro.core.vectorized import VectorizedEngine

        seeds = []
        seed_round = VectorizedEngine._seed_round

        def counted(self, C, rows):
            seeds.append(rows.size)
            return seed_round(self, C, rows)

        monkeypatch.setattr(VectorizedEngine, "_seed_round", counted)
        rng = random.Random(3)
        with ServiceClient(port=daemon.port) as c:
            sid = self._load(c)
            c.sigma(sid)
            writes = self._writes(c, sid, 1, rng)
            assert c.sigma(sid, start_seed=3)["warm"] is False
            assert seeds == []                  # a seeded start: cold
            writes += self._writes(c, sid, 1, rng)
            served = c.sigma(sid)
        net = _mirror(*self.LOAD, writes)
        assert served["warm"] is True and seeds == [1]
        assert served["digest"] == \
            state_digest(RoutingSession(net, "naive").sigma().state)


class TestRoutesVerb:
    """Per-destination route queries: one row/column of the cached
    fixed point — O(n) on the wire instead of include_state's O(n²)."""

    def test_routes_slice_matches_direct_session(self, daemon):
        n, seed = 12, 4
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=n, topology="random",
                         seed=seed)["session"]
            by_dest = c.routes(sid, dest=3)
            by_node = c.routes(sid, node=5)
        from repro.cli import build_network
        network, _factory = build_network("hop-count", "random", n, seed)
        with RoutingSession(network) as session:
            direct = session.sigma()
        assert by_dest["routes"] == [str(r) for r in
                                     direct.state.column(3)]
        assert by_node["routes"] == [str(r) for r in direct.state.row(5)]
        assert by_dest["digest"] == state_digest(direct.state)
        assert by_dest["converged"] and by_dest["dest"] == 3
        assert by_node["node"] == 5 and by_node["dest"] is None

    def test_routes_cache_and_invalidation(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=10, topology="ring")["session"]
            first = c.routes(sid, dest=0)
            assert first["cached"] is False
            assert c.routes(sid, dest=0)["cached"] is True
            # different slice, same fixed point: reply-cache miss, but
            # the shared state cache means no second σ solve is wrong
            # to serve — the digests agree
            other = c.routes(sid, node=2)
            assert other["cached"] is False
            assert other["digest"] == first["digest"]
            c.remove_edge(sid, 0, 1)
            after = c.routes(sid, dest=0)
            assert after["cached"] is False
            assert after["digest"] != first["digest"]

    def test_one_digest_per_solve(self, daemon, monkeypatch):
        """At one topology version ``sigma``, eight ``routes`` slices
        and ``sigma`` with ``include_state`` share one σ solve and one
        hash of the n×n state: the digest is cached beside the solve."""
        from repro.service import daemon as daemon_mod
        hashed, solves = [], []
        digest = daemon_mod.state_digest
        solve = RoutingSession.sigma

        def counting_digest(state, *memo):
            hashed.append(state)
            return digest(state, *memo)

        def counting_sigma(session, *args, **kwargs):
            solves.append(session)
            return solve(session, *args, **kwargs)

        monkeypatch.setattr(daemon_mod, "state_digest", counting_digest)
        monkeypatch.setattr(RoutingSession, "sigma", counting_sigma)
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=12, topology="random",
                         seed=2)["session"]
            first = c.sigma(sid)
            replies = [first] + [c.routes(sid, node=i) for i in range(8)]
            full = c.sigma(sid, include_state=True)
            replies.append(full)
        assert all(r["cached"] is False for r in replies)
        assert len(solves) == 1
        assert len(hashed) == 1
        assert {r["digest"] for r in replies} == {digest(hashed[0])}
        # sigma's compute_ms is the time of the one shared solve
        assert full["compute_ms"] == first["compute_ms"]

    def test_routes_axis_validation(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=8, topology="ring")["session"]
            with pytest.raises(ServiceError) as neither:
                c.routes(sid)
            assert neither.value.code == ERR_BAD_REQUEST
            with pytest.raises(ServiceError) as both:
                c.request({"verb": "routes", "session": sid,
                           "node": 1, "dest": 2})
            assert both.value.code == ERR_BAD_REQUEST
            with pytest.raises(ServiceError) as oob:
                c.routes(sid, dest=99)
            assert oob.value.code == ERR_BAD_REQUEST
            assert "n=8" in str(oob.value)

    def test_async_client_routes(self, daemon):
        async def go():
            c = await AsyncServiceClient.connect("127.0.0.1", daemon.port)
            try:
                sid = (await c.load("hop-count", n=8,
                                    topology="ring"))["session"]
                return await c.routes(sid, dest=1)
            finally:
                await c.close()
        reply = asyncio.run(go())
        assert reply["ok"] and len(reply["routes"]) == 8


class TestConvergenceVerb:
    """The Definition 8 grid as a verb: the served reply is the direct
    session's ConvergenceReport, cached per topology version."""

    FIELDS = ("absolute", "runs", "distinct_fixed_points", "max_steps",
              "mean_steps", "engine")

    def test_convergence_matches_direct_session_and_caches(self, daemon):
        n, seed = 10, 2
        knobs = dict(n_starts=2, seed=5, max_steps=800)
        from repro.cli import build_network
        network, factory = build_network("hop-count", "random", n, seed)

        def direct():
            with RoutingSession(network) as session:
                report = session.converges(**knobs)
            return {"absolute": report.absolute, "runs": report.runs,
                    "distinct_fixed_points":
                        len(report.distinct_fixed_points),
                    "max_steps": report.grid.max_steps,
                    "mean_steps": report.grid.mean_steps,
                    "engine": report.grid.resolution.chosen}

        def fields(reply):
            return {k: reply[k] for k in self.FIELDS}

        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=n, topology="random",
                         seed=seed)["session"]
            served = c.convergence(sid, **knobs)
            again = c.convergence(sid, **knobs)
            version = c.set_edge(sid, 0, n - 1, edge_seed=3)["version"]
            after = c.convergence(sid, **knobs)
        assert served["cached"] is False
        assert fields(served) == direct()
        assert again["cached"] is True
        assert fields(again) == fields(served)
        assert version > served["version"]
        assert after["cached"] is False and after["version"] == version
        network.set_edge(0, n - 1, factory(random.Random(3), 0, n - 1))
        assert fields(after) == direct()


class TestCorpusTopologyLoads:
    def test_load_corpus_topology(self, daemon):
        from repro.scenarios import load_corpus_topology
        topo = load_corpus_topology("janet")
        with ServiceClient(port=daemon.port) as c:
            load = c.load("hop-count", n=topo.n, topology="corpus:janet",
                          seed=0)
            assert c.sigma(load["session"])["converged"] is True

    def test_load_corpus_wrong_n_is_typed(self, daemon):
        from repro.scenarios import load_corpus_topology
        topo = load_corpus_topology("janet")
        with ServiceClient(port=daemon.port) as c:
            with pytest.raises(ServiceError) as exc:
                c.load("hop-count", n=topo.n + 3, topology="corpus:janet")
            assert exc.value.code == ERR_BAD_REQUEST
            assert f"n={topo.n}" in str(exc.value)

    def test_load_unknown_corpus_name_is_typed(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            with pytest.raises(ServiceError) as exc:
                c.load("hop-count", n=9, topology="corpus:ghostnet")
            assert exc.value.code == ERR_BAD_REQUEST


# ----------------------------------------------------------------------
# 5. Registry, stats and the serve CLI
# ----------------------------------------------------------------------


class TestRegistryAndCLI:
    def test_identical_loads_share_a_warm_session(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            first = c.load("hop-count", n=10, topology="ring", seed=1)
            second = c.load("hop-count", n=10, topology="ring", seed=1)
            assert first["session"] == second["session"]
            assert first["reused"] is False and second["reused"] is True

    def test_lru_eviction_closes_oldest(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            sids = [c.load("hop-count", n=8, topology="ring",
                           seed=s)["session"] for s in range(5)]
            assert len(set(sids)) == 5
            stats = c.stats()
            assert len(stats["sessions"]) == 4      # max_sessions=4
            assert stats["evictions"] == 1
            with pytest.raises(ServiceError) as exc:
                c.sigma(sids[0])                    # the evicted one
            assert exc.value.code == ERR_NO_SESSION

    def test_stats_shape(self, daemon):
        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=8, topology="ring")["session"]
            c.sigma(sid), c.sigma(sid)
            stats = c.stats()
        assert stats["v"] == SERVICE_VERSION
        assert stats["requests"] >= 4
        session_row = next(s for s in stats["sessions"]
                           if s["session"] == sid)
        assert session_row["hits"] == 1 and session_row["misses"] == 1
        assert 0.0 < stats["cache"]["hit_ratio"] <= 1.0
        assert stats["latency_ms"]["count"] >= 4

    def test_percentile_nearest_rank(self):
        assert percentile([], 50) == 0.0
        assert percentile([5.0], 99) == 5.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0

    def test_serve_cli_announces_and_shuts_down_cleanly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            m = re.search(r"listening on (\S+):(\d+)", line)
            assert m, f"unparseable announce line: {line!r}"
            with ServiceClient(m.group(1), int(m.group(2))) as c:
                sid = c.load("hop-count", n=8, topology="star")["session"]
                assert c.sigma(sid)["converged"] is True
                c.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=15)
            proc.stdout.close()


# ----------------------------------------------------------------------
# 6. Backpressure and chaos: busy shed, retry, sanitised internals
# ----------------------------------------------------------------------


@pytest.fixture()
def tiny_daemon():
    """A daemon that admits exactly one query at a time, so the second
    concurrent query deterministically sheds with ``busy``."""
    d = RoutingServiceDaemon(host="127.0.0.1", port=0, max_sessions=4,
                             max_inflight=1)
    t = threading.Thread(target=d.run, daemon=True)
    t.start()
    assert d.wait_ready(15), "daemon did not come up"
    yield d
    d.request_shutdown()
    t.join(15)
    assert not t.is_alive(), "daemon did not shut down"


def _slow_compute(daemon_obj, seconds):
    """Wrap the daemon's σ compute so one admitted query holds its
    inflight slot for a while (runs in the executor: the event loop
    stays free to shed the competitor)."""
    import time as _time
    orig = daemon_obj._compute_sigma

    def slow(entry, start_seed, max_rounds, include_state):
        _time.sleep(seconds)
        return orig(entry, start_seed, max_rounds, include_state)

    daemon_obj._compute_sigma = slow
    return orig


class TestBackpressure:
    def test_second_concurrent_query_sheds_busy(self, tiny_daemon):
        _slow_compute(tiny_daemon, 0.8)

        async def drive():
            a = await AsyncServiceClient.connect("127.0.0.1",
                                                 tiny_daemon.port)
            b = await AsyncServiceClient.connect("127.0.0.1",
                                                 tiny_daemon.port)
            try:
                sid = (await a.load("hop-count", n=8,
                                    topology="ring"))["session"]
                slow_task = asyncio.ensure_future(a.sigma(sid))
                await asyncio.sleep(0.2)   # let the slow one be admitted
                with pytest.raises(ServiceError) as exc:
                    await b.sigma(sid, start_seed=1)
                assert exc.value.code == ERR_BUSY
                assert exc.value.retry_after_ms is not None
                assert 25.0 <= exc.value.retry_after_ms <= 2000.0
                # the shed connection stays open and usable
                stats = await b.stats()
                assert stats["shed"] >= 1
                assert stats["max_inflight"] == 1
                assert (await slow_task)["converged"] is True
            finally:
                await a.close()
                await b.close()

        asyncio.run(drive())

    def test_sync_client_retries_busy_to_success(self, tiny_daemon):
        _slow_compute(tiny_daemon, 0.6)
        with ServiceClient(port=tiny_daemon.port) as setup:
            sid = setup.load("hop-count", n=8,
                             topology="ring")["session"]

        def hold_the_slot():
            with ServiceClient(port=tiny_daemon.port) as holder:
                holder.sigma(sid)

        hold = threading.Thread(target=hold_the_slot, daemon=True)
        hold.start()
        import time as _time
        _time.sleep(0.2)                   # the slot is now occupied
        with ServiceClient(port=tiny_daemon.port, retries=8,
                           backoff_base=0.05) as c:
            reply = c.sigma(sid, start_seed=2)   # busy → backoff → ok
        assert reply["converged"] is True
        hold.join(15)

    def test_async_client_retries_busy_to_success(self, tiny_daemon):
        _slow_compute(tiny_daemon, 0.6)

        async def drive():
            a = await AsyncServiceClient.connect("127.0.0.1",
                                                 tiny_daemon.port)
            b = await AsyncServiceClient.connect(
                "127.0.0.1", tiny_daemon.port, retries=8,
                backoff_base=0.05)
            try:
                sid = (await a.load("hop-count", n=8,
                                    topology="ring"))["session"]
                slow_task = asyncio.ensure_future(a.sigma(sid))
                await asyncio.sleep(0.2)
                reply = await b.sigma(sid, start_seed=2)
                assert reply["converged"] is True
                await slow_task
            finally:
                await a.close()
                await b.close()

        asyncio.run(drive())


class TestInternalErrorSanitised:
    def test_unexpected_failure_is_typed_and_redacted(self, daemon):
        # an arbitrary server-side crash must surface as a typed
        # ``internal`` error carrying a correlation id — never the
        # exception text — and must NOT kill the connection
        secret = "kaboom-secret-detail-7731"

        def boom(req):
            raise RuntimeError(secret)

        with ServiceClient(port=daemon.port) as c:
            sid = c.load("hop-count", n=8, topology="ring")["session"]
            orig = daemon._entry
            daemon._entry = boom
            try:
                with pytest.raises(ServiceError) as exc:
                    c.sigma(sid)
            finally:
                daemon._entry = orig
            assert exc.value.code == ERR_INTERNAL
            cid = exc.value.extra.get("correlation_id")
            assert cid and len(cid) == 12
            assert secret not in str(exc.value)
            assert cid in exc.value.message
            # same connection, next request: served normally
            assert c.sigma(sid)["converged"] is True
