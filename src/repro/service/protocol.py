"""Request-layer protocol for the routing service daemon.

One frame = one ``\\n``-terminated JSON object.  The discipline mirrors
:mod:`repro.core.wire` (the remote rung's binary protocol), re-applied
at the request layer:

* **versioned hello** — the first frame on every connection must be
  ``{"verb": "hello", "v": SERVICE_VERSION}``; a version-skewed client
  gets one typed error naming both versions, then the connection drops;
* **typed error replies** — every failure is
  ``{"ok": false, "error": {"code": ..., "message": ...}}`` with a
  stable code vocabulary (asserted exactly by the tests);
* **loud rejection of malformed frames** — a line that is not a JSON
  object (or overflows the line limit) earns a ``malformed-frame``
  error and the connection is closed: a desynced peer must never be
  silently resynchronised.

Request/response envelopes::

    -> {"verb": "sigma", "id": 7, "session": "...", "start_seed": 3}
    <- {"ok": true, "verb": "sigma", "id": 7, "converged": true, ...}
    <- {"ok": false, "verb": "sigma", "id": 7,
        "error": {"code": "no-session", "message": "..."}}

``id`` is an optional client-chosen correlation token, echoed verbatim.
The verb vocabulary, cache-key semantics and failure behaviour are
documented normatively in ``docs/service.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Any, Dict, List, Optional

from ..core.asynchronous import random_state
from ..core.schedule import (
    FixedDelaySchedule,
    RandomSchedule,
    RoundRobinSchedule,
    SynchronousSchedule,
)
from ..core.state import RoutingState

__all__ = [
    "SERVICE_VERSION",
    "MAX_LINE",
    "ServiceError",
    "ERR_VERSION_SKEW",
    "ERR_MALFORMED",
    "ERR_HELLO_REQUIRED",
    "ERR_UNKNOWN_VERB",
    "ERR_BAD_REQUEST",
    "ERR_NO_SESSION",
    "ERR_ENGINE",
    "ERR_SERVER",
    "ERR_BUSY",
    "ERR_DRAINING",
    "ERR_INTERNAL",
    "FATAL_CODES",
    "encode_frame",
    "error_reply",
    "schedule_from_spec",
    "schedule_cache_key",
    "start_state",
    "state_matrix",
    "state_digest",
    "DigestMemo",
    "percentile",
]

#: Protocol version.  Bump on any incompatible change to the verb
#: vocabulary, envelope layout, or cache-key semantics; a client
#: whose ``hello`` carries a different version is rejected with
#: :data:`ERR_VERSION_SKEW`.
SERVICE_VERSION = 1

#: Sanity bound on one request line (bytes).  A longer line means the
#: peer is not framing requests; the connection is dropped loudly.
MAX_LINE = 4 * 1024 * 1024

# Stable error-code vocabulary (tests assert these exactly).
ERR_VERSION_SKEW = "version-skew"      # hello carried a different version
ERR_MALFORMED = "malformed-frame"      # not a JSON object / line too long
ERR_HELLO_REQUIRED = "hello-required"  # first frame was not a hello
ERR_UNKNOWN_VERB = "unknown-verb"      # verb outside the vocabulary
ERR_BAD_REQUEST = "bad-request"        # missing/invalid parameters
ERR_NO_SESSION = "no-session"          # unknown (or evicted) session id
ERR_ENGINE = "engine-error"            # engine negotiation/run failure
ERR_SERVER = "server-error"            # client-side: error reply lacks a code
ERR_BUSY = "busy"                      # load shed: retry after the hint
ERR_DRAINING = "draining"              # graceful drain: not admitting work
ERR_INTERNAL = "internal"              # server bug; carries correlation id

#: codes after which the server closes the connection (the peer is
#: either desynced or speaking another protocol version; continuing
#: would be a silent resync).  Everything else keeps the session open.
FATAL_CODES = frozenset(
    {ERR_VERSION_SKEW, ERR_MALFORMED, ERR_HELLO_REQUIRED})


class ServiceError(RuntimeError):
    """A typed error reply, raised client-side (and used server-side to
    carry a code to the reply encoder).  ``code`` is from the stable
    vocabulary above.  Extra error-envelope fields (``retry_after_ms``
    on :data:`ERR_BUSY`, ``correlation_id`` on :data:`ERR_INTERNAL`)
    ride on :attr:`extra`."""

    def __init__(self, code: str, message: str, **extra: Any):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.extra = extra

    @property
    def retry_after_ms(self) -> Optional[float]:
        """The server's backoff hint on a ``busy`` shed, else ``None``."""
        value = self.extra.get("retry_after_ms")
        return float(value) if value is not None else None


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """One newline-terminated JSON frame."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def error_reply(code: str, message: str, verb: Optional[str] = None,
                req_id: Any = None, **extra: Any) -> Dict[str, Any]:
    """The typed error envelope for one failed request."""
    reply: Dict[str, Any] = {
        "ok": False,
        "error": dict({"code": code, "message": message}, **extra),
    }
    if verb is not None:
        reply["verb"] = verb
    if req_id is not None:
        reply["id"] = req_id
    return reply


# ----------------------------------------------------------------------
# Schedule specs: JSON-describable δ schedules
# ----------------------------------------------------------------------


def schedule_from_spec(spec: Dict[str, Any], n: int):
    """Build a :class:`~repro.core.schedule.Schedule` from a JSON spec.

    ``spec["kind"]`` selects the family; the remaining keys are the
    family's constructor parameters.  Seeded families denote schedules
    under :data:`~repro.core.schedule.RandomSchedule.SCHEDULE_SEED_VERSION`
    (the daemon folds that version into every cache key and reports it
    in the reply, so a recorded answer can never silently outlive a
    seed-semantics change).
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ServiceError(ERR_BAD_REQUEST,
                           "schedule spec must be an object with a 'kind'")
    kind = spec["kind"]
    try:
        if kind == "synchronous":
            return SynchronousSchedule(n)
        if kind == "round-robin":
            return RoundRobinSchedule(n)
        if kind == "fixed-delay":
            return FixedDelaySchedule(n, delay=int(spec.get("delay", 3)))
        if kind == "random":
            return RandomSchedule(
                n, seed=int(spec.get("seed", 0)),
                activation_prob=float(spec.get("activation_prob", 0.5)),
                max_delay=int(spec.get("max_delay", 8)))
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            ERR_BAD_REQUEST, f"bad schedule spec {spec!r}: {exc}") from None
    raise ServiceError(
        ERR_BAD_REQUEST,
        f"unknown schedule kind {kind!r}; choose from "
        "('synchronous', 'round-robin', 'fixed-delay', 'random')")


def schedule_cache_key(spec: Dict[str, Any]) -> str:
    """Canonical string form of a schedule spec (sorted keys), so two
    requests describing the same schedule share one cache entry."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Start states and state serialisation
# ----------------------------------------------------------------------


def start_state(network, start_seed: Optional[int]) -> RoutingState:
    """The start state a request denotes: the identity matrix when
    ``start_seed`` is ``None``, else the Theorem 7/11 arbitrary state
    drawn from ``random.Random(start_seed)`` — deterministic, so a
    direct :class:`~repro.session.RoutingSession` call with the same
    seed reproduces the service's answer bit for bit."""
    if start_seed is None:
        return RoutingState.identity(network.algebra, network.n)
    return random_state(network.algebra, network.n,
                        random.Random(int(start_seed)))


def state_matrix(state: RoutingState) -> List[List[str]]:
    """The state as an ``n × n`` matrix of canonical route strings
    (JSON-safe for every algebra, including object-valued routes)."""
    return [[str(route) for route in row] for row in state.rows]


class DigestMemo:
    """The rows :func:`state_digest` hashed last, for the next call.

    Holds the last digested state itself, so its row objects stay
    alive and an identity match can never be a reused ``id``.
    """

    __slots__ = ("state", "rows")

    def __init__(self):
        self.state: Optional[RoutingState] = None
        self.rows: List[bytes] = []


def state_digest(state: RoutingState,
                 memo: Optional[DigestMemo] = None) -> str:
    """A short hex digest of :func:`state_matrix` — what cached replies
    carry instead of the full matrix, and what the bit-identity tests
    compare across the service boundary.

    With a ``memo`` (one per session), a row that *is* the row the
    previous call saw at the same index reuses its bytes instead of
    rendering every route again — the engines share unchanged row
    objects between successive states — and the memo then holds this
    state.  The digest is the same with or without one.
    """
    old = memo.state.rows if memo is not None and memo.state is not None \
        and memo.state.n == state.n else None
    rows = []
    for i, row in enumerate(state.rows):
        if old is not None and row is old[i]:
            rows.append(memo.rows[i])
        else:
            rows.append("\x1f".join(str(route) for route in row)
                        .encode("utf-8") + b"\x1e")
    if memo is not None:
        memo.state, memo.rows = state, rows
    return hashlib.sha256(b"".join(rows)).hexdigest()


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
