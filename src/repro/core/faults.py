"""Deterministic, seeded fault injection for the distributed layers.

The source paper's convergence theorems are claims about *unreliable*
asynchronous delivery, but a loopback TCP test bed never drops, delays
or corrupts anything on its own.  This module supplies the missing
adversary: a :class:`FaultPlan` is a declarative, seeded list of
:class:`FaultRule`\\ s, and a :class:`FaultInjector` is the per-peer
runtime that applies them **at frame boundaries** inside
:class:`repro.core.wire.FrameConnection` (both directions) and the
service daemon's stream reader.

Determinism contract
--------------------

A fault decision is a pure function of the key
``(role, shard, round, msg_index)`` plus the direction (``send`` /
``recv``), the frame's message type, the plan ``seed`` and the rule's
position in the plan: probabilistic rules draw from a keyed blake2b
hash, never from global RNG state, so the same plan against the same
protocol trace injects exactly the same faults — chaos runs replay.
``msg_index`` counts frames through one injector per direction;
``round`` is advanced by the protocol layer at every barrier (the
remote coordinator ties it to its acked-round counter; peers that have
no barrier notion leave it at 0 and match on ``msg_index`` instead).

Rules with a finite ``times`` budget share that budget across every
injector created from the same plan object (one process), so "kill one
worker once" keeps meaning *once* even after the supervisor respawns
the worker and opens a fresh connection.

Fault taxonomy (``kind``)
-------------------------

``drop``
    send: the frame is silently not written.  recv: the frame is read
    and discarded; the reader waits for the next one.  Either way the
    peer eventually trips its deadline — the timeout path.
``delay``
    sleep ``delay_ms`` before delivering the frame (still lossless).
``corrupt``
    XOR ``xor_mask`` into one byte at ``offset``.  On send this mangles
    one byte of the whole frame; on recv one byte of the payload.  On
    the remote wire either way the frame fails its magic or its
    checksum (a typed :class:`~repro.core.wire.WireFormatError`).
``truncate``
    send: write only the first ``truncate_to`` bytes, then close — the
    peer sees a torn frame.  recv: deliver a ``truncate_to``-byte
    payload prefix (typed decode error above).
``close``
    drop the connection at this frame boundary without sending/reading.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultPlanError",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "RECV_PASS",
    "RECV_DROP",
    "RECV_CLOSE",
]

#: The closed vocabulary of injectable faults.
FAULT_KINDS = ("drop", "delay", "corrupt", "truncate", "close")

_ROLES = ("coordinator", "worker", "daemon")
_OPS = ("send", "recv")

# recv-side verdicts returned by :meth:`FaultInjector.recv_frame`.
RECV_PASS = "pass"
RECV_DROP = "drop"
RECV_CLOSE = "close"


class FaultPlanError(ValueError):
    """A fault-plan spec is malformed (unknown kind/role/op, bad prob)."""


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault.  ``None`` fields are wildcards.

    ``times`` bounds how often the rule may fire across the whole plan
    (0 = unlimited); ``prob`` gates each candidate firing with a
    deterministic keyed draw.
    """

    kind: str
    role: Optional[str] = None
    shard: Optional[int] = None
    round: Optional[int] = None
    msg_index: Optional[int] = None
    op: Optional[str] = None
    msg_type: Optional[int] = None
    prob: float = 1.0
    times: int = 1
    delay_ms: float = 50.0
    truncate_to: int = 6
    xor_mask: int = 0xFF
    offset: int = 0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        if self.role is not None and self.role not in _ROLES:
            raise FaultPlanError(
                f"unknown role {self.role!r}; expected one of {_ROLES}")
        if self.op is not None and self.op not in _OPS:
            raise FaultPlanError(
                f"unknown op {self.op!r}; expected 'send' or 'recv'")
        if not 0.0 <= self.prob <= 1.0:
            raise FaultPlanError(
                f"prob must be in [0, 1], got {self.prob}")
        if self.times < 0:
            raise FaultPlanError(f"times must be >= 0, got {self.times}")
        if self.delay_ms < 0:
            raise FaultPlanError(
                f"delay_ms must be >= 0, got {self.delay_ms}")
        if self.truncate_to < 0:
            raise FaultPlanError(
                f"truncate_to must be >= 0, got {self.truncate_to}")
        if not 0 <= self.xor_mask <= 0xFF:
            raise FaultPlanError(
                f"xor_mask must be one byte, got {self.xor_mask}")

    def matches(self, role: str, shard: Optional[int], round_: int,
                msg_index: int, op: str, msg_type: int) -> bool:
        return ((self.role is None or self.role == role)
                and (self.shard is None or self.shard == shard)
                and (self.round is None or self.round == round_)
                and (self.msg_index is None or self.msg_index == msg_index)
                and (self.op is None or self.op == op)
                and (self.msg_type is None or self.msg_type == msg_type))

    def as_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("role", "shard", "round", "msg_index", "op",
                    "msg_type"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.prob != 1.0:
            out["prob"] = self.prob
        if self.times != 1:
            out["times"] = self.times
        if self.kind == "delay":
            out["delay_ms"] = self.delay_ms
        if self.kind == "truncate":
            out["truncate_to"] = self.truncate_to
        if self.kind == "corrupt":
            out["xor_mask"] = self.xor_mask
            out["offset"] = self.offset
        return out


def _keyed_draw(seed: int, rule_index: int, role: str,
                shard: Optional[int], round_: int, msg_index: int,
                op: str) -> float:
    """Deterministic uniform draw in [0, 1) keyed by the fault key.

    blake2b, not ``hash()``: stable across processes and interpreter
    runs, which is the whole replay contract.
    """
    key = repr((seed, rule_index, role, shard, round_, msg_index, op))
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / float(1 << 64)


class FaultPlan:
    """A seeded list of fault rules plus the shared firing budget.

    Parse one from JSON (``FaultPlan.parse``), build injectors with
    :meth:`injector`.  The plan object is the unit of sharing: every
    injector it creates consumes the same per-rule ``times`` budget, so
    a respawned worker's fresh connection cannot re-fire a spent
    single-shot rule.
    """

    def __init__(self, rules=(), seed: int = 0):
        norm = []
        for rule in rules:
            if isinstance(rule, dict):
                try:
                    rule = FaultRule(**rule)
                except TypeError as exc:
                    raise FaultPlanError(f"bad fault rule: {exc}") from None
            if not isinstance(rule, FaultRule):
                raise FaultPlanError(
                    f"rules must be FaultRule or dict, got {type(rule)}")
            norm.append(rule)
        self.rules: Tuple[FaultRule, ...] = tuple(norm)
        self.seed = int(seed)
        self._fired: Dict[int, int] = {}

    @classmethod
    def parse(cls, spec) -> "FaultPlan":
        """Build a plan from a JSON string, a dict, or a plan."""
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, str):
            try:
                spec = json.loads(spec)
            except json.JSONDecodeError as exc:
                raise FaultPlanError(
                    f"fault plan is not valid JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, got {type(spec)}")
        unknown = set(spec) - {"rules", "seed"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan keys {sorted(unknown)}")
        rules = spec.get("rules", ())
        if not isinstance(rules, (list, tuple)):
            raise FaultPlanError("'rules' must be a list")
        return cls(rules, seed=spec.get("seed", 0))

    def as_dict(self) -> dict:
        return {"seed": self.seed,
                "rules": [r.as_dict() for r in self.rules]}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))

    def injector(self, role: str, shard: Optional[int] = None
                 ) -> "FaultInjector":
        return FaultInjector(self, role, shard)

    # -- shared firing budget -------------------------------------------

    def _try_fire(self, rule_index: int) -> bool:
        rule = self.rules[rule_index]
        if rule.times and self._fired.get(rule_index, 0) >= rule.times:
            return False
        self._fired[rule_index] = self._fired.get(rule_index, 0) + 1
        return True

    # The plan crosses a Pipe into spawned loopback workers; the budget
    # dict restarts empty on the far side (each process adversaries
    # independently), which pickling handles fine as-is.
    def __reduce__(self):
        return (_rebuild_plan, (self.rules, self.seed))


def _rebuild_plan(rules, seed):
    return FaultPlan(rules, seed=seed)


@dataclass
class FaultInjector:
    """Per-peer fault runtime: counters + the plan's rules.

    One injector per connection per direction-pair.  ``round`` is
    public — the protocol layer above sets it at barriers so rules can
    target "the σ round after the third barrier" deterministically.
    """

    plan: FaultPlan
    role: str
    shard: Optional[int] = None
    round: int = 0
    injected: int = 0
    _indices: Dict[str, int] = field(default_factory=lambda: {
        "send": 0, "recv": 0})

    def _match(self, op: str, msg_type: int) -> Optional[FaultRule]:
        idx = self._indices[op]
        self._indices[op] = idx + 1
        for rule_index, rule in enumerate(self.plan.rules):
            if not rule.matches(self.role, self.shard, self.round, idx,
                                op, msg_type):
                continue
            if rule.prob < 1.0 and _keyed_draw(
                    self.plan.seed, rule_index, self.role, self.shard,
                    self.round, idx, op) >= rule.prob:
                continue
            if not self.plan._try_fire(rule_index):
                continue
            self.injected += 1
            return rule
        return None

    # -- frame hooks (wire.FrameConnection calls these) ------------------
    #
    # Two flavours per direction: the blocking ones (``send_frame`` /
    # ``recv_frame``) sleep through ``delay`` faults inline — right for
    # the synchronous wire path, where one connection is one thread.
    # The ``*_nowait`` variants return the delay in seconds instead so
    # an event-loop host (the service daemon) can ``await
    # asyncio.sleep(delay)`` and stall only the targeted peer.

    def send_frame_nowait(self, msg_type: int, frame: bytes
                          ) -> Tuple[Optional[bytes], bool, float]:
        """Filter an outgoing frame without sleeping.

        Returns ``(data, close_after, delay_s)``: ``data is None``
        means send nothing; ``close_after`` means drop the connection
        after writing whatever ``data`` is; ``delay_s`` is how long the
        caller must stall *this* peer before sending.
        """
        rule = self._match("send", msg_type)
        if rule is None:
            return frame, False, 0.0
        if rule.kind == "drop":
            return None, False, 0.0
        if rule.kind == "delay":
            return frame, False, rule.delay_ms / 1000.0
        if rule.kind == "corrupt":
            return _xor_byte(frame, rule.offset, rule.xor_mask), False, 0.0
        if rule.kind == "truncate":
            keep = min(rule.truncate_to, max(len(frame) - 1, 0))
            return frame[:keep], True, 0.0
        return None, True, 0.0           # close

    def send_frame(self, msg_type: int, frame: bytes
                   ) -> Tuple[Optional[bytes], bool]:
        """Blocking variant of :meth:`send_frame_nowait` (sleeps through
        ``delay`` faults); returns ``(data, close_after)``."""
        data, close_after, delay = self.send_frame_nowait(msg_type, frame)
        if delay > 0.0:
            time.sleep(delay)
        return data, close_after

    def recv_frame_nowait(self, msg_type: int, payload: bytes
                          ) -> Tuple[str, bytes, float]:
        """Filter a received frame without sleeping: ``(verdict,
        payload, delay_s)`` where the verdict is :data:`RECV_PASS`,
        :data:`RECV_DROP` (read the next frame instead) or
        :data:`RECV_CLOSE` (sever the connection), and ``delay_s`` is
        how long the caller must stall this peer before acting on it."""
        rule = self._match("recv", msg_type)
        if rule is None:
            return RECV_PASS, payload, 0.0
        if rule.kind == "drop":
            return RECV_DROP, b"", 0.0
        if rule.kind == "delay":
            return RECV_PASS, payload, rule.delay_ms / 1000.0
        if rule.kind == "corrupt":
            return RECV_PASS, _xor_byte(payload, rule.offset,
                                        rule.xor_mask), 0.0
        if rule.kind == "truncate":
            return RECV_PASS, \
                payload[:min(rule.truncate_to, len(payload))], 0.0
        return RECV_CLOSE, b"", 0.0      # close

    def recv_frame(self, msg_type: int, payload: bytes
                   ) -> Tuple[str, bytes]:
        """Blocking variant of :meth:`recv_frame_nowait` (sleeps through
        ``delay`` faults); returns ``(verdict, payload)``."""
        verdict, payload, delay = self.recv_frame_nowait(msg_type, payload)
        if delay > 0.0:
            time.sleep(delay)
        return verdict, payload


def _xor_byte(data: bytes, offset: int, mask: int) -> bytes:
    if not data:
        return data
    pos = min(offset, len(data) - 1)
    out = bytearray(data)
    out[pos] ^= mask
    # a zero-mask XOR would be a silent no-op fault; force a flip
    if out[pos] == data[pos]:
        out[pos] ^= 0xFF
    return bytes(out)
