"""Chaos suite: deterministic fault injection and self-healing.

The contract under test (``docs/faults.md`` is the narrative form):

* a :class:`~repro.core.faults.FaultPlan` is *deterministic* — the same
  plan against the same protocol trace injects the same faults, across
  processes (keyed blake2b draws, not ``hash()`` or global RNG);
* single-shot rules share one firing budget per plan object, so a
  healed worker's fresh connection cannot re-fire a spent fault;
* the supervised remote engine heals every injectable single-fault
  plan — worker kill mid-σ and mid-δ, dropped/corrupt/truncated
  frames, silent stalls past the deadline — to a fixed point
  **bit-identical** to the fault-free run, with the recovery recorded
  as machine-readable :class:`~repro.core.capabilities.DegradedEvent`s;
* ``strict=True`` (and exhausted retry budgets) surface the original
  typed errors — :class:`~repro.core.remote.RemoteWorkerError`,
  :class:`~repro.core.wire.WireFormatError` — exactly as before
  supervision existed;
* nothing ever hangs: every engine-level test runs under a hard
  watchdog, and a hypothesis fuzz over random plans asserts
  heal-bit-identically-or-typed-error across the fault space.
"""

import pickle
import socket
import threading

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebras import HopCountAlgebra
from repro.core import (
    RandomSchedule,
    RemoteError,
    RemoteVectorizedEngine,
    RemoteWorkerError,
    RoutingState,
    WireClosedError,
    WireError,
    WireFormatError,
)
from repro.core.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    RECV_CLOSE,
    RECV_DROP,
    RECV_PASS,
)
from repro.core.remote import (
    _reap_workers,
    _serve_connection,
    serve_worker,
    spawn_loopback_workers,
)
from repro.core.wire import (
    MSG_ACK,
    MSG_SIGMA_ROUND,
    MSG_DELTA_STEPS,
    MSG_UPDATE,
    FrameConnection,
)
from repro.core.vectorized import iterate_sigma_vectorized
from repro.session import RoutingSession
from repro.topologies import erdos_renyi, uniform_weight_factory

WATCHDOG_S = 120.0


def _net(n=9, seed=1, bound=16):
    alg = HopCountAlgebra(bound)
    return erdos_renyi(alg, n, 0.4, uniform_weight_factory(alg, 1, 3),
                       seed=seed)


def _watchdog(fn, timeout=WATCHDOG_S):
    """Run ``fn`` under a hard wall-clock bound: a hang is a failure,
    never a stuck suite."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:       # re-raised on the main thread
            box["error"] = exc

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        raise AssertionError(
            f"operation hung past the {timeout}s chaos watchdog")
    if "error" in box:
        raise box["error"]
    return box["value"]


# ----------------------------------------------------------------------
# 1. FaultPlan: parsing, validation, determinism, shared budget
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(
            '{"seed": 7, "rules": [{"kind": "drop", "role": '
            '"coordinator", "op": "send", "prob": 0.25, "times": 0}, '
            '{"kind": "delay", "delay_ms": 10.0}]}')
        assert plan.seed == 7
        assert [r.kind for r in plan.rules] == ["drop", "delay"]
        again = FaultPlan.parse(plan.to_json())
        assert again.as_dict() == plan.as_dict()
        # a plan passes through parse unchanged (identity, not a copy:
        # the shared firing budget must stay shared)
        assert FaultPlan.parse(plan) is plan

    @pytest.mark.parametrize("bad", [
        {"rules": [{"kind": "meteor-strike"}]},
        {"rules": [{"kind": "drop", "role": "astronaut"}]},
        {"rules": [{"kind": "drop", "op": "teleport"}]},
        {"rules": [{"kind": "drop", "prob": 1.5}]},
        {"rules": [{"kind": "drop", "times": -1}]},
        {"rules": [{"kind": "drop", "nonsense": 1}]},
        {"rules": "not-a-list"},
        {"unknown-key": 1},
        "{not json",
        12345,
    ])
    def test_bad_specs_are_typed(self, bad):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(bad)

    def test_probabilistic_draws_replay_exactly(self):
        spec = {"seed": 42, "rules": [{"kind": "drop", "prob": 0.3,
                                       "times": 0}]}

        def trace():
            inj = FaultPlan.parse(dict(spec)).injector("coordinator", 0)
            return [inj.send_frame(MSG_ACK, b"x" * 16)[0] is None
                    for _ in range(200)]

        first, second = trace(), trace()
        assert first == second
        assert 20 < sum(first) < 120   # the draw really is ~p=0.3

    def test_seed_changes_the_trace(self):
        def trace(seed):
            plan = FaultPlan([FaultRule(kind="drop", prob=0.5, times=0)],
                             seed=seed)
            inj = plan.injector("coordinator", 0)
            return [inj.send_frame(MSG_ACK, b"x")[0] is None
                    for _ in range(64)]

        assert trace(1) != trace(2)

    def test_single_shot_budget_spans_injectors(self):
        # "kill once" means once per plan, even across the fresh
        # injectors a healed/respawned connection creates
        plan = FaultPlan([FaultRule(kind="drop")])
        first = plan.injector("coordinator", 0)
        assert first.send_frame(MSG_ACK, b"x")[0] is None
        second = plan.injector("coordinator", 0)   # post-heal connection
        assert second.send_frame(MSG_ACK, b"x")[0] == b"x"

    def test_pickle_resets_the_budget(self):
        # the plan crosses a Pipe into spawned workers: each process is
        # an independent adversary with a fresh budget
        plan = FaultPlan([FaultRule(kind="drop")], seed=3)
        assert plan.injector("worker").send_frame(MSG_ACK, b"x")[0] is None
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.seed == 3
        assert clone.injector("worker").send_frame(MSG_ACK, b"x")[0] is None

    def test_rule_matching_keys(self):
        rule = FaultRule(kind="drop", role="coordinator", shard=1,
                         round=2, msg_index=3, op="send",
                         msg_type=MSG_SIGMA_ROUND)
        assert rule.matches("coordinator", 1, 2, 3, "send",
                            MSG_SIGMA_ROUND)
        assert not rule.matches("worker", 1, 2, 3, "send",
                                MSG_SIGMA_ROUND)
        assert not rule.matches("coordinator", 0, 2, 3, "send",
                                MSG_SIGMA_ROUND)
        assert not rule.matches("coordinator", 1, 9, 3, "send",
                                MSG_SIGMA_ROUND)
        assert not rule.matches("coordinator", 1, 2, 4, "send",
                                MSG_SIGMA_ROUND)
        assert not rule.matches("coordinator", 1, 2, 3, "recv",
                                MSG_SIGMA_ROUND)
        assert not rule.matches("coordinator", 1, 2, 3, "send", MSG_ACK)


class TestFaultInjector:
    def test_send_verdicts(self):
        frame = bytes(range(32))
        cases = {
            "drop": (None, False),
            "close": (None, True),
        }
        for kind, expected in cases.items():
            inj = FaultPlan([FaultRule(kind=kind)]).injector("worker")
            assert inj.send_frame(MSG_ACK, frame) == expected
        corrupted, close = FaultPlan(
            [FaultRule(kind="corrupt", offset=4)]).injector(
                "worker").send_frame(MSG_ACK, frame)
        assert not close
        assert corrupted != frame and len(corrupted) == len(frame)
        assert sum(a != b for a, b in zip(corrupted, frame)) == 1
        truncated, close = FaultPlan(
            [FaultRule(kind="truncate", truncate_to=6)]).injector(
                "worker").send_frame(MSG_ACK, frame)
        assert close and truncated == frame[:6]

    def test_recv_verdicts(self):
        payload = bytes(range(16))
        inj = FaultPlan([FaultRule(kind="drop")]).injector("worker")
        assert inj.recv_frame(MSG_ACK, payload)[0] == RECV_DROP
        inj = FaultPlan([FaultRule(kind="close")]).injector("worker")
        assert inj.recv_frame(MSG_ACK, payload)[0] == RECV_CLOSE
        inj = FaultPlan([FaultRule(kind="corrupt")]).injector("worker")
        verdict, mangled = inj.recv_frame(MSG_ACK, payload)
        assert verdict == RECV_PASS and mangled != payload
        # past the budget the stream is clean again
        assert inj.recv_frame(MSG_ACK, payload) == (RECV_PASS, payload)

    def test_corrupt_never_noops(self):
        # an xor_mask that would leave the byte unchanged still flips it
        inj = FaultPlan([FaultRule(kind="corrupt", xor_mask=0)]).injector(
            "worker")
        assert inj.send_frame(MSG_ACK, b"\x00\x00")[0] != b"\x00\x00"


# ----------------------------------------------------------------------
# 2. Wire integration: FrameConnection honors the injector
# ----------------------------------------------------------------------


def _pair(plan=None, role="coordinator"):
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    injector = plan.injector(role, 0) if plan is not None else None
    return FrameConnection(a, injector=injector), FrameConnection(b)


class TestWireInjection:
    def test_clean_connection_roundtrips(self):
        left, right = _pair()
        try:
            left.send(MSG_ACK, b"payload")
            assert right.recv() == (MSG_ACK, b"payload")
        finally:
            left.close()
            right.close()

    def test_send_drop_suppresses_the_frame(self):
        plan = FaultPlan([FaultRule(kind="drop", op="send")])
        left, right = _pair(plan)
        try:
            left.send(MSG_ACK, b"lost")     # dropped silently
            left.send(MSG_ACK, b"kept")     # budget spent: delivered
            assert right.recv() == (MSG_ACK, b"kept")
        finally:
            left.close()
            right.close()

    def test_send_corrupt_breaks_the_peer_frame(self):
        plan = FaultPlan([FaultRule(kind="corrupt", op="send")])
        left, right = _pair(plan)
        try:
            left.send(MSG_ACK, b"x")
            with pytest.raises(WireFormatError):
                right.recv()                # header magic was mangled
        finally:
            left.close()
            right.close()

    def test_send_close_raises_and_severs(self):
        plan = FaultPlan([FaultRule(kind="close", op="send")])
        left, right = _pair(plan)
        try:
            with pytest.raises(WireClosedError):
                left.send(MSG_ACK, b"x")
            with pytest.raises(WireClosedError):
                right.recv()                # peer sees a clean EOF
        finally:
            left.close()
            right.close()

    def test_recv_drop_skips_to_the_next_frame(self):
        plan = FaultPlan([FaultRule(kind="drop", op="recv")])
        left, right = _pair()
        right.injector = plan.injector("coordinator", 0)
        try:
            left.send(MSG_ACK, b"first")
            left.send(MSG_ACK, b"second")
            assert right.recv() == (MSG_ACK, b"second")
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# 3. The chaos matrix: every single-fault plan heals bit-identically
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def sigma_ref():
    net = _net(9)
    start = RoutingState.identity(net.algebra, net.n)
    return net, start, iterate_sigma_vectorized(net, start, max_rounds=300)


@pytest.fixture(scope="module")
def delta_ref():
    net = _net(9)
    start = RoutingState.identity(net.algebra, net.n)
    sched = RandomSchedule(net.n, seed=2, max_delay=3)
    with RoutingSession(net, "vectorized") as ref:
        return net, start, sched, ref.delta(sched, start,
                                            max_steps=300).result


def _assert_sigma_identical(res, ref, net):
    assert res.converged == ref.converged
    assert res.rounds == ref.rounds
    assert res.state.equals(ref.state, net.algebra)


def _assert_delta_identical(res, ref, net):
    assert res.converged == ref.converged
    assert res.steps == ref.steps
    assert res.converged_at == ref.converged_at
    assert res.state.equals(ref.state, net.algebra)


def _sigma_under_plan(net, start, plan, **kw):
    eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=1.0,
                                 fault_plan=plan, **kw)
    try:
        res = _watchdog(lambda: iterate_sigma_vectorized(
            net, start, max_rounds=300, engine=eng))
        return res, list(eng.degraded)
    finally:
        eng.close()


def _delta_under_plan(net, start, sched, plan, **kw):
    eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=1.0,
                                 fault_plan=plan, **kw)
    try:
        res = _watchdog(lambda: eng.delta(sched, start, max_steps=300))
        return res, list(eng.degraded)
    finally:
        eng.close()


class TestChaosMatrix:
    def test_worker_kill_mid_sigma_heals(self, sigma_ref):
        net, start, ref = sigma_ref
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=5.0)
        try:
            # establish the pool, then kill a shard *between* runs so
            # the next σ run trips mid-protocol on a dead peer
            _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            victim = eng._res.procs[0]
            victim.kill()
            victim.join(timeout=10)
            res = _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            _assert_sigma_identical(res, ref, net)
            assert any(ev.code == "worker-respawned"
                       for ev in eng.degraded)
            assert all(ev.heal_ms is not None and ev.heal_ms >= 0
                       for ev in eng.degraded)
        finally:
            eng.close()

    def test_worker_kill_mid_delta_heals(self, delta_ref):
        net, start, sched, ref = delta_ref
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=5.0)
        try:
            _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            victim = eng._res.procs[1]
            victim.kill()
            victim.join(timeout=10)
            res = _watchdog(lambda: eng.delta(sched, start, max_steps=300))
            _assert_delta_identical(res, ref, net)
            assert any(ev.code == "worker-respawned"
                       for ev in eng.degraded)
        finally:
            eng.close()

    def test_dropped_frame_mid_sigma_heals(self, sigma_ref):
        # a dropped σ-round broadcast = a silent stall: the shard never
        # replies, the deadline trips, the supervisor heals
        net, start, ref = sigma_ref
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_SIGMA_ROUND, "round": 2, "shard": 0}]}
        res, degraded = _sigma_under_plan(net, start, plan)
        _assert_sigma_identical(res, ref, net)
        assert [ev.code for ev in degraded] == ["worker-respawned"]

    def test_dropped_frame_mid_delta_heals(self, delta_ref):
        net, start, sched, ref = delta_ref
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_DELTA_STEPS, "shard": 1}]}
        res, degraded = _delta_under_plan(net, start, sched, plan)
        _assert_delta_identical(res, ref, net)
        assert [ev.code for ev in degraded] == ["worker-respawned"]

    def test_corrupt_reply_heals(self, sigma_ref):
        # a corrupted reply payload is a typed decode failure; the
        # supervisor rebuilds and replays to the same fixed point
        net, start, ref = sigma_ref
        plan = {"seed": 9, "rules": [{
            "kind": "corrupt", "role": "coordinator", "op": "recv",
            "msg_type": MSG_UPDATE, "round": 1, "shard": 0, "offset": 2}]}
        res, degraded = _sigma_under_plan(net, start, plan)
        _assert_sigma_identical(res, ref, net)
        assert len(degraded) == 1

    def test_truncated_frame_heals(self, sigma_ref):
        net, start, ref = sigma_ref
        plan = {"seed": 9, "rules": [{
            "kind": "truncate", "role": "coordinator", "op": "send",
            "msg_type": MSG_SIGMA_ROUND, "round": 1, "truncate_to": 6}]}
        res, degraded = _sigma_under_plan(net, start, plan)
        _assert_sigma_identical(res, ref, net)
        assert len(degraded) == 1

    def test_connection_close_heals(self, sigma_ref):
        net, start, ref = sigma_ref
        plan = {"seed": 9, "rules": [{
            "kind": "close", "role": "coordinator", "op": "send",
            "round": 2, "shard": 1}]}
        res, degraded = _sigma_under_plan(net, start, plan)
        _assert_sigma_identical(res, ref, net)
        assert len(degraded) == 1

    def test_delay_fault_is_lossless(self, sigma_ref):
        # a delay is adversarial latency, not loss: no heal, no
        # degraded events, identical result
        net, start, ref = sigma_ref
        plan = {"seed": 1, "rules": [{
            "kind": "delay", "role": "coordinator", "delay_ms": 20.0,
            "times": 3}]}
        res, degraded = _sigma_under_plan(net, start, plan)
        _assert_sigma_identical(res, ref, net)
        assert degraded == []

    def test_worker_side_persistent_fault_exhausts_retries(self, sigma_ref):
        # a plan shipped to the *workers* crosses the spawn Pipe, so its
        # firing budget resets per process (each respawn is an
        # independent adversary).  A deterministic worker-side drop
        # therefore re-fires on every respawned pool: a persistent
        # fault.  The supervisor must burn its bounded retry budget and
        # surface the original typed timeout — never loop forever.
        net, start, _ = sigma_ref
        plan = {"seed": 3, "rules": [{
            "kind": "drop", "role": "worker", "op": "send",
            "msg_index": 2, "times": 0}]}
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=1.0)
        try:
            from repro.core import remote as remote_mod
            orig = remote_mod.spawn_loopback_workers

            def spawn_with_plan(count, host="127.0.0.1", timeout=30.0,
                                fault_plan=None):
                return orig(count, host=host, timeout=timeout,
                            fault_plan=FaultPlan.parse(plan))

            remote_mod.spawn_loopback_workers = spawn_with_plan
            try:
                with pytest.raises(RemoteWorkerError) as exc:
                    _watchdog(lambda: iterate_sigma_vectorized(
                        net, start, max_rounds=300, engine=eng))
            finally:
                remote_mod.spawn_loopback_workers = orig
            assert "did not reply within 1.0s" in str(exc.value)
            # every recovery attempt was recorded before the give-up
            assert [ev.code for ev in eng.degraded_total] == \
                ["worker-respawned"] * 3
        finally:
            eng.close()


# ----------------------------------------------------------------------
# 4. Strict mode and exhausted budgets surface the original errors
# ----------------------------------------------------------------------


class TestStrictAndTerminal:
    def test_strict_timeout_is_typed(self, sigma_ref):
        net, start, _ = sigma_ref
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_SIGMA_ROUND, "round": 2, "shard": 0}]}
        with pytest.raises(RemoteWorkerError) as exc:
            _sigma_under_plan(net, start, plan, strict=True)
        assert "did not reply within 1.0s" in str(exc.value)
        assert exc.value.last_acked_round is not None

    def test_strict_corrupt_reply_is_wire_error(self, sigma_ref):
        net, start, _ = sigma_ref
        plan = {"seed": 9, "rules": [{
            "kind": "corrupt", "role": "coordinator", "op": "recv",
            "msg_type": MSG_UPDATE, "round": 1, "shard": 0, "offset": 2}]}
        with pytest.raises(WireError):
            _sigma_under_plan(net, start, plan, strict=True)

    def test_exhausted_retries_surface_the_fault(self, sigma_ref):
        # an unbounded drop rule keeps stalling every rebuilt pool; the
        # retry budget must run dry in bounded time with the original
        # typed timeout error, not loop forever
        net, start, _ = sigma_ref
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_SIGMA_ROUND, "times": 0}]}
        with pytest.raises(RemoteWorkerError) as exc:
            _sigma_under_plan(net, start, plan)
        assert "did not reply within 1.0s" in str(exc.value)

    def test_strict_relayed_worker_error_is_typed(self, sigma_ref):
        # shard 1's worker corrupts the JSON head of the first σ-round
        # command it receives; its handler fails and the worker relays
        # the failure as MSG_ERROR, which a strict engine surfaces as
        # the typed per-shard error carrying the worker's message
        net, start, _ = sigma_ref
        plan = FaultPlan.parse({"rules": [{
            "kind": "corrupt", "role": "worker", "op": "recv",
            "msg_type": MSG_SIGMA_ROUND, "offset": 4}]})
        procs, endpoints = [], []
        try:
            for fault_plan in (None, plan):
                spawned, eps = spawn_loopback_workers(1,
                                                      fault_plan=fault_plan)
                procs += spawned
                endpoints += eps
            eng = RemoteVectorizedEngine(net, endpoints=endpoints,
                                         strict=True, socket_timeout=10.0)
            with pytest.raises(RemoteWorkerError) as exc:
                _watchdog(lambda: iterate_sigma_vectorized(
                    net, start, max_rounds=300, engine=eng))
            assert exc.value.shard_id == 1
            assert exc.value.endpoint == tuple(endpoints[1])
            assert "undecodable JSON head" in str(exc.value)
            assert eng.closed
        finally:
            _reap_workers(procs)

    def test_strict_never_records_degraded(self, sigma_ref):
        net, start, ref = sigma_ref
        eng = RemoteVectorizedEngine(net, workers=2, strict=True,
                                     socket_timeout=5.0)
        try:
            res = _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            _assert_sigma_identical(res, ref, net)
            assert eng.degraded == [] and eng.degraded_total == []
        finally:
            eng.close()


# ----------------------------------------------------------------------
# 5. Hypothesis fuzz: random plans heal bit-identically or raise typed
# ----------------------------------------------------------------------


_RULES = st.builds(
    dict,
    kind=st.sampled_from(("drop", "delay", "corrupt", "close")),
    op=st.sampled_from(("send", "recv")),
    msg_index=st.integers(min_value=0, max_value=12),
    shard=st.sampled_from((0, 1)),
    delay_ms=st.just(5.0),
)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(rules=st.lists(_RULES, min_size=1, max_size=2),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_fuzz_sigma_heals_or_raises_typed(sigma_ref, rules, seed):
    net, start, ref = sigma_ref
    for rule in rules:
        rule["role"] = "coordinator"
    plan = {"seed": seed, "rules": rules}
    try:
        res, _degraded = _sigma_under_plan(net, start, plan)
    except (RemoteError, RemoteWorkerError, WireError):
        return  # a documented typed error is an acceptable outcome
    _assert_sigma_identical(res, ref, net)


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(rules=st.lists(_RULES, min_size=1, max_size=2),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_fuzz_delta_heals_or_raises_typed(delta_ref, rules, seed):
    net, start, sched, ref = delta_ref
    for rule in rules:
        rule["role"] = "coordinator"
    plan = {"seed": seed, "rules": rules}
    try:
        res, _degraded = _delta_under_plan(net, start, sched, plan)
    except (RemoteError, RemoteWorkerError, WireError):
        return
    _assert_delta_identical(res, ref, net)


# ----------------------------------------------------------------------
# 6. Session plumbing: degraded events ride the reports
# ----------------------------------------------------------------------


class TestSessionDegraded:
    def test_degraded_rides_the_sigma_report(self):
        from repro.session import EngineSpec, RoutingSession
        net = _net(9)
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_SIGMA_ROUND, "round": 2, "shard": 0}]}
        spec = EngineSpec(engine="remote", remote_workers=2,
                          socket_timeout=1.0, fault_plan=plan)
        with RoutingSession(net, spec) as session:
            report = _watchdog(lambda: session.sigma())
        ref = iterate_sigma_vectorized(
            net, RoutingState.identity(net.algebra, net.n),
            max_rounds=10_000)
        assert report.state.equals(ref.state, net.algebra)
        assert report.degraded and \
            report.degraded[0].code == "worker-respawned"
        assert report.degraded[0].as_dict()["code"] == "worker-respawned"

    def test_clean_remote_run_has_empty_degraded(self):
        from repro.session import EngineSpec, RoutingSession
        net = _net(9)
        spec = EngineSpec(engine="remote", remote_workers=2)
        with RoutingSession(net, spec) as session:
            report = _watchdog(lambda: session.sigma())
        assert report.degraded == ()

    def test_local_rungs_report_none(self):
        from repro.session import EngineSpec, RoutingSession
        net = _net(9)
        with RoutingSession(net, EngineSpec(engine="vectorized")) as s:
            assert s.sigma().degraded is None


# ----------------------------------------------------------------------
# 7. Endpoint probation/rejoin and mid-run delta checkpoints
# ----------------------------------------------------------------------


def _threaded_worker(port=0):
    """A long-lived ``serve_worker`` on a daemon thread; returns the
    bound port once the socket is listening."""
    box = {}
    listening = threading.Event()

    def ready(_host, bound):
        box["port"] = bound
        listening.set()

    threading.Thread(
        target=serve_worker,
        kwargs=dict(host="127.0.0.1", port=port, once=False,
                    ready_callback=ready),
        daemon=True).start()
    assert listening.wait(10), "worker never started listening"
    return box["port"]


class TestEndpointProbation:
    def test_probation_then_rejoin_restores_the_original_layout(
            self, sigma_ref):
        net, start, ref = sigma_ref
        port_a = _threaded_worker()

        # worker B is hand-rolled so the test holds both its accepted
        # connection (to sever it) and its listener (closed right after
        # the accept, so the heal's reconnect is refused -> probation)
        srv_b = socket.socket()
        srv_b.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv_b.bind(("127.0.0.1", 0))
        srv_b.listen(1)
        port_b = srv_b.getsockname()[1]
        accepted = {}
        b_serving = threading.Event()

        def b_once():
            conn, _addr = srv_b.accept()
            srv_b.close()
            accepted["conn"] = conn
            b_serving.set()
            _serve_connection(conn)

        threading.Thread(target=b_once, daemon=True).start()

        ep_a, ep_b = ("127.0.0.1", port_a), ("127.0.0.1", port_b)
        eng = RemoteVectorizedEngine(net, endpoints=[ep_a, ep_b],
                                     socket_timeout=2.0, max_retries=8)
        try:
            res = _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            _assert_sigma_identical(res, ref, net)
            assert b_serving.wait(10)
            assert eng.workers == 2

            # sever B mid-life: the run trips, the heal cannot
            # reconnect, B is parked and A absorbs every column
            accepted["conn"].close()
            res = _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            _assert_sigma_identical(res, ref, net)
            codes = [ev.code for ev in eng.degraded]
            assert "endpoint-probation" in codes
            assert "reshard-after-loss" in codes
            assert eng.workers == 1
            assert eng._shard_endpoints == [ep_a]
            assert ep_b in eng._parked

            # resurrect B on the same port and expire its probation:
            # the next run's reset probes it, re-admits it, and the
            # re-shard lands back on the ORIGINAL column layout
            _threaded_worker(port=port_b)
            eng._parked[ep_b]["next_probe"] = 0.0
            res = _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            _assert_sigma_identical(res, ref, net)
            assert "endpoint-rejoined" in [ev.code for ev in eng.degraded]
            assert eng.workers == 2
            assert eng._shard_endpoints == [ep_a, ep_b]
            assert eng._parked == {}
        finally:
            eng.close()

    def test_failed_probe_reparks_with_backoff(self, sigma_ref):
        net, start, ref = sigma_ref
        port_a = _threaded_worker()
        # B never existed as a live worker for this engine: park it by
        # hand to exercise the probe path in isolation
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        port_b = dead.getsockname()[1]
        dead.close()                     # nothing listens here any more

        ep_a, ep_b = ("127.0.0.1", port_a), ("127.0.0.1", port_b)
        eng = RemoteVectorizedEngine(net, endpoints=[ep_a, ep_b],
                                     socket_timeout=2.0, max_retries=8)
        try:
            eng._park(ep_b, 1, "a test-injected failure")
            failures = eng._parked[ep_b]["failures"]
            eng._parked[ep_b]["next_probe"] = 0.0
            res = _watchdog(lambda: iterate_sigma_vectorized(
                net, start, max_rounds=300, engine=eng))
            _assert_sigma_identical(res, ref, net)
            # the probe failed: still parked, backoff doubled, and no
            # rejoin event was recorded
            assert eng._parked[ep_b]["failures"] == failures + 1
            assert all(ev.code != "endpoint-rejoined"
                       for ev in eng.degraded)
            assert eng._shard_endpoints == [ep_a]
        finally:
            eng.close()


class TestDeltaCheckpoint:
    def test_clean_run_checkpoints_are_invisible(self, delta_ref):
        # checkpoints are pure insurance: with no fault they must not
        # change the trajectory, the counters, or the fixed point
        net, start, sched, ref = delta_ref
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=5.0)
        eng.delta_ckpt_every = 1
        try:
            res = _watchdog(lambda: eng.delta(sched, start, max_steps=300,
                                              window=4))
            _assert_delta_identical(res, ref, net)
            assert eng.delta_ckpt_saves >= 1
            assert eng.delta_ckpt_resumes == 0
            assert eng.degraded == []
        finally:
            eng.close()

    def test_heal_resumes_from_the_checkpoint_not_step_one(self,
                                                           delta_ref):
        # drop a window-2 steps frame: the heal must restart the run
        # from the window-1 checkpoint (t=4), NOT from step 1, and
        # still land on the bit-identical fixed point
        net, start, sched, ref = delta_ref
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_DELTA_STEPS, "round": 3, "shard": 1}]}
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=1.0,
                                     fault_plan=plan)
        eng.delta_ckpt_every = 1
        try:
            res = _watchdog(lambda: eng.delta(sched, start, max_steps=300,
                                              window=4))
            _assert_delta_identical(res, ref, net)
            assert eng.delta_ckpt_saves >= 1
            assert eng.delta_ckpt_resumes == 1
            assert eng.delta_resumed_from == 4
            assert [ev.code for ev in eng.degraded] == ["worker-respawned"]
        finally:
            eng.close()

    def test_checkpoints_off_replays_from_scratch(self, delta_ref):
        # the pre-checkpoint behaviour is one knob away: with the
        # cadence disabled the same window-2 fault heals by full
        # replay (no barriers advance the injector round without
        # checkpoints, so the frame is pinned by send index instead:
        # load=0, delta-init=1, steps w1=2, steps w2=3)
        net, start, sched, ref = delta_ref
        plan = {"seed": 5, "rules": [{
            "kind": "drop", "role": "coordinator", "op": "send",
            "msg_type": MSG_DELTA_STEPS, "msg_index": 3, "shard": 1}]}
        eng = RemoteVectorizedEngine(net, workers=2, socket_timeout=1.0,
                                     fault_plan=plan)
        eng.delta_ckpt_every = 0
        try:
            res = _watchdog(lambda: eng.delta(sched, start, max_steps=300,
                                              window=4))
            _assert_delta_identical(res, ref, net)
            assert eng.delta_ckpt_saves == 0
            assert eng.delta_ckpt_resumes == 0
            assert [ev.code for ev in eng.degraded] == ["worker-respawned"]
        finally:
            eng.close()
