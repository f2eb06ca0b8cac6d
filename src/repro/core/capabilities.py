"""Engine capability negotiation: the one ladder, resolved explicitly.

Six engines implement σ/δ (naive → incremental → vectorized → parallel
→ batched → remote), each trading generality for speed — the remote
rung additionally trading locality: it shards destination columns over
TCP workers and is only eligible when the caller configured a
transport.

This module is the one negotiation:

* each engine class advertises a :class:`Capabilities` descriptor
  (``requires_finite_algebra``, ``requires_shared_memory``, ``min_n``,
  ``supports_kept_history``, …), registered under its rung name in
  :data:`ENGINE_CAPABILITIES`.  Every rung follows topology mutations
  itself (the worker-backed ones republish their snapshot), so no
  descriptor field is about them;
* :func:`resolve_engine` walks the ladder from the requested rung (or
  from the top, for ``"auto"``) and returns an :class:`EngineResolution`
  recording the chosen rung **and a machine-readable reason chain** —
  one :class:`SkippedRung` with a stable ``code`` per rung it skipped;
* every skipped rung is logged as one structured line on the ``repro``
  logger (``repro.engine``), so fallback is observable without being
  noisy (INFO level — silent by default, one ``logging.basicConfig``
  away from visible);
* ``strict=True`` raises :class:`UnsupportedEngineError` (carrying the
  resolution) instead of falling back — the mode RPC sharding and
  recorded experiments need, where a silent rung change is an
  operational hazard.

Check order inside a rung is part of the contract (tests assert reason
chains exactly): **capability** (``no-finite-encoding``,
``no-shared-memory``, ``no-remote-endpoints``) → **policy**
(``keep-history``, ``unbounded-schedule``, ``literal-history``) →
**sizing** (``auto-single-cpu``, ``below-min-n``,
``workers-lt-2``).  The first failing check names the rung's skip
reason.  The policy checks are δ's: every codes rung runs σ — and a
lone σ-stability check, its one-round case — on the same loop, so σ
negotiates on capability and sizing alone.

The resolver is consumed by :meth:`repro.session.RoutingSession.resolve`,
so every entry point negotiates identically.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: structured fallback log lines land here — a child of the ``repro``
#: logger, so ``logging.getLogger("repro").setLevel(logging.INFO)``
#: makes every skipped rung visible.
logger = logging.getLogger("repro.engine")

#: the ladder, fastest/most-specialised rung first.  Fallback walks this
#: list downward and stops at ``incremental`` (always capable); the
#: ``naive`` rung is only ever *chosen*, never fallen back to — except
#: by an explicit literal-history (strict δ) request.  The ``remote``
#: rung sits above the walk's auto starting points, so it is only ever
#: reached by an explicit request (a network dependency must be opted
#: into, never inferred).
LADDER = ("remote", "batched", "parallel", "vectorized", "incremental",
          "naive")

#: where ``engine="auto"`` starts the walk, per operation: grids of
#: trials want the batched tensor engine; a single δ run starts at the
#: vectorized rung (the compiled-schedule step every in-process codes
#: rung shares); σ starts at the parallel rung (whose own sizing
#: heuristics decline small problems).
AUTO_START = {"sigma": "parallel", "delta": "vectorized", "grid": "batched",
              "stability": "parallel"}

#: valid operations a resolution can be asked for.
OPS = ("sigma", "delta", "grid", "stability")


class UnsupportedEngineError(RuntimeError):
    """Raised by strict resolution when the requested rung cannot run.

    Carries the full :class:`EngineResolution` (``.resolution``) so the
    caller can inspect the machine-readable reason chain.
    """

    def __init__(self, message: str, resolution: "EngineResolution"):
        super().__init__(message)
        self.resolution = resolution


@dataclass(frozen=True)
class Capabilities:
    """What one engine rung needs and what it can do.

    Advertised as a ``capabilities`` class attribute by the engine
    classes (:class:`~repro.core.vectorized.VectorizedEngine`,
    :class:`~repro.core.parallel.ParallelVectorizedEngine`,
    :class:`~repro.core.vectorized.BatchedVectorizedEngine`,
    :class:`~repro.core.remote.RemoteVectorizedEngine`); the
    function-implemented rungs (``naive``, ``incremental``) register
    descriptors directly below.
    """

    rung: str
    #: needs an :class:`~repro.algebras.base.AlgebraEncoding` (finite
    #: carrier, injective preference keys) plus numpy.
    requires_finite_algebra: bool = False
    #: needs ``multiprocessing.shared_memory`` and a process start method.
    requires_shared_memory: bool = False
    #: needs an explicitly configured remote transport (worker
    #: endpoints, or a loopback subprocess count); without one the rung
    #: is skipped with ``no-remote-endpoints``.
    requires_remote_endpoints: bool = False
    #: auto-mode problem-size floor (0 = none); explicit ``workers``
    #: requests override it, capability checks never.
    min_n: int = 0
    #: minimum effective worker count (0 = not pool-based).
    min_workers: int = 0
    #: δ: can serve a schedule with no declared staleness bound.
    supports_unbounded_schedules: bool = True
    #: δ: can return the full decoded state history (``keep_history``).
    supports_kept_history: bool = True
    #: runs the literal paper recursion (strict mode).
    supports_literal_history: bool = False


#: rung name → descriptor.  The two function-implemented rungs register
#: here; the engine classes register on import (see resolve_engine's
#: lazy import, which guarantees registration before any negotiation).
ENGINE_CAPABILITIES: Dict[str, Capabilities] = {}


def register_engine(caps: Capabilities) -> Capabilities:
    """Register (and return) one rung's descriptor."""
    ENGINE_CAPABILITIES[caps.rung] = caps
    return caps


register_engine(Capabilities(
    rung="naive",
    supports_literal_history=True,
))
register_engine(Capabilities(
    rung="incremental",
))


#: stable vocabulary for degraded-mode recovery events (asserted by the
#: chaos suite, surfaced on session reports next to the wire stats):
#: ``worker-respawned`` — a dead loopback worker subprocess was replaced
#: and the shard reloaded; ``worker-reconnected`` — a flaky endpoint was
#: reconnected without losing it; ``reshard-after-loss`` — an endpoint
#: stayed unreachable and its columns were re-sharded onto survivors;
#: ``endpoint-probation`` — a dead endpoint was parked with exponential
#: re-probe backoff instead of being retried in the hot path;
#: ``endpoint-rejoined`` — a parked endpoint answered its probation
#: probe and was re-admitted (the next pool build re-shards its columns
#: back towards the original layout).
DEGRADED_CODES = ("worker-respawned", "worker-reconnected",
                  "reshard-after-loss", "endpoint-probation",
                  "endpoint-rejoined")


@dataclass(frozen=True)
class DegradedEvent:
    """One recovery the remote supervisor performed instead of raising.

    The machine-readable cousin of :class:`SkippedRung`, for runtime
    faults rather than negotiation: ``code`` is from
    :data:`DEGRADED_CODES`, ``shard`` the failed shard index, ``detail``
    the human sentence, and ``heal_ms`` the wall-clock cost of the
    recovery (pool rebuild + state reload) — the benchmark harness's
    time-to-heal metric.
    """

    code: str
    shard: Optional[int] = None
    detail: str = ""
    heal_ms: Optional[float] = None

    def as_dict(self) -> dict:
        out = {"code": self.code, "shard": self.shard,
               "detail": self.detail}
        if self.heal_ms is not None:
            out["heal_ms"] = round(self.heal_ms, 2)
        return out


@dataclass(frozen=True)
class SkippedRung:
    """One rung the resolver walked past, with a machine-readable reason.

    ``code`` is stable vocabulary (asserted exactly by the test suite):
    ``no-finite-encoding``, ``no-shared-memory``,
    ``no-remote-endpoints``, ``keep-history``, ``unbounded-schedule``,
    ``literal-history``, ``auto-single-cpu``, ``below-min-n``,
    ``workers-lt-2``.  ``detail`` is the human sentence.
    """

    rung: str
    code: str
    detail: str


@dataclass(frozen=True)
class EngineResolution:
    """The outcome of one capability negotiation.

    ``requested`` is what the caller asked for (``"auto"`` included),
    ``chosen`` the rung that will actually run, ``skipped`` the reason
    chain for every rung walked past (empty = no fallback), and
    ``workers`` the resolved pool/shard size when the parallel or
    remote rung was chosen.
    """

    requested: str
    op: str
    chosen: str
    skipped: Tuple[SkippedRung, ...] = ()
    workers: Optional[int] = None

    @property
    def fell_back(self) -> bool:
        """True when the chosen rung differs from a concrete request."""
        return bool(self.skipped)

    def reason_codes(self) -> List[Tuple[str, str]]:
        """``[(rung, code)]`` — the chain in machine-comparable form."""
        return [(s.rung, s.code) for s in self.skipped]

    def explain(self) -> str:
        """Human-readable negotiation summary (used by the CLI)."""
        head = self.chosen
        if self.workers:
            head += f" ({self.workers} workers)"
        if not self.skipped:
            return head
        chain = "; ".join(f"{s.rung} skipped [{s.code}]: {s.detail}"
                          for s in self.skipped)
        return f"{head} — {chain}"


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------


def _skip_reason(caps: Capabilities, network, op: str, workers,
                 keep_history: bool, bounded: Optional[bool],
                 remote=None
                 ) -> Tuple[Optional[SkippedRung], Optional[int]]:
    """First failing check for ``caps``'s rung, or ``(None, pool size)``.

    Check order — capability, then policy, then sizing — is part of the
    negotiation contract (see the module docstring).
    """
    rung = caps.rung
    alg = network.algebra

    # -- capability -----------------------------------------------------
    if caps.requires_finite_algebra:
        from .vectorized import supports_vectorized
        if not supports_vectorized(alg):
            return SkippedRung(
                rung, "no-finite-encoding",
                f"{alg.name} has no finite int encoding "
                "(or numpy is unavailable)"), None
    if caps.requires_shared_memory:
        from .parallel import _mp_context
        if _mp_context() is None:
            return SkippedRung(
                rung, "no-shared-memory",
                "multiprocessing shared memory is not supported on this "
                "platform"), None
    if caps.requires_remote_endpoints and not remote:
        return SkippedRung(
            rung, "no-remote-endpoints",
            "no remote transport configured: pass worker endpoints or a "
            "loopback worker count (EngineSpec.endpoints / "
            "EngineSpec.remote_workers)"), None

    # -- policy ---------------------------------------------------------
    if op in ("delta", "grid"):
        if keep_history and not caps.supports_kept_history:
            return SkippedRung(
                rung, "keep-history",
                "full decoded state histories cannot live in this "
                "rung's bounded ring"), None
        if bounded is False and not caps.supports_unbounded_schedules:
            return SkippedRung(
                rung, "unbounded-schedule",
                "schedule declares no staleness bound "
                "(max_read_back() is None); a fixed history ring would "
                "be unsound"), None

    # -- sizing ---------------------------------------------------------
    if caps.requires_remote_endpoints:
        n = network.n
        if n < caps.min_n:
            return SkippedRung(
                rung, "below-min-n",
                f"n={n} < min_n={caps.min_n}: wire fan-out cannot pay at "
                "this size (gate applies even to explicit requests)"), None
        try:
            count = len(remote)
        except TypeError:
            count = int(remote)
        effective = min(count, n)
        if effective < caps.min_workers:
            return SkippedRung(
                rung, "workers-lt-2",
                f"remote transport resolved to {effective} shard(s) < "
                f"{caps.min_workers}"), None
        return None, effective
    if caps.min_workers:
        n = network.n
        if workers is None:
            cpus = os.cpu_count() or 1
            if cpus < 2:
                return SkippedRung(
                    rung, "auto-single-cpu",
                    f"auto mode on a single-CPU host "
                    f"(os.cpu_count()={cpus})"), None
            if n < caps.min_n:
                return SkippedRung(
                    rung, "below-min-n",
                    f"auto mode declines n={n} < min_n={caps.min_n} "
                    "(process fan-out would not pay)"), None
            workers = cpus
        effective = min(int(workers), n)
        if effective < caps.min_workers:
            return SkippedRung(
                rung, "workers-lt-2",
                f"workers resolved to {effective} < "
                f"{caps.min_workers}"), None
        return None, effective
    return None, None


def resolve_engine(network, requested: str = "auto", op: str = "sigma", *,
                   workers: Optional[int] = None, strict: bool = False,
                   keep_history: bool = False, literal: bool = False,
                   schedule=None, remote=None) -> EngineResolution:
    """Negotiate the engine rung for one operation on one network.

    ``requested`` is a rung name or ``"auto"``; ``op`` one of
    :data:`OPS`.  ``schedule`` (δ only) supplies the staleness bound;
    ``keep_history`` and ``literal`` are the δ history policies
    (``literal`` — the strict paper recursion — always resolves to the
    naive rung, which is the only one that retains it).  ``remote`` is
    the remote rung's transport: a sequence of worker endpoints or a
    loopback subprocess count; without one the remote rung is skipped
    with ``no-remote-endpoints``.

    Returns an :class:`EngineResolution`; with ``strict=True`` a
    concrete request that cannot run raises
    :class:`UnsupportedEngineError` instead of falling back (``"auto"``
    never raises — the incremental rung is always capable).

    Every skipped rung is logged as one structured line on the
    ``repro.engine`` logger.
    """
    # engine classes register their Capabilities on import
    from . import parallel as _parallel  # noqa: F401
    from . import remote as _remote  # noqa: F401
    from . import vectorized as _vectorized  # noqa: F401

    if op not in OPS:
        raise ValueError(f"unknown engine op {op!r}; choose from {OPS}")
    if requested != "auto" and requested not in LADDER:
        raise ValueError(f"unknown engine {requested!r}")
    start = AUTO_START[op] if requested == "auto" else requested
    bounded: Optional[bool] = None
    if schedule is not None:
        bounded = schedule.max_read_back() is not None

    skipped: List[SkippedRung] = []
    chosen = start
    resolved_workers: Optional[int] = None
    for rung in LADDER[LADDER.index(start):]:
        caps = ENGINE_CAPABILITIES[rung]
        if literal and not caps.supports_literal_history:
            skip = SkippedRung(
                rung, "literal-history",
                "strict literal recursion requested; only the naive "
                "rung retains the paper recursion")
            reason_workers = None
        else:
            skip, reason_workers = _skip_reason(
                caps, network, op, workers, keep_history, bounded,
                remote=remote)
        if skip is None:
            chosen = rung
            resolved_workers = reason_workers
            break
        skipped.append(skip)
        logger.info(
            "engine-skip rung=%s code=%s op=%s requested=%s algebra=%s "
            "n=%d detail=%s",
            skip.rung, skip.code, op, requested, network.algebra.name,
            network.n, skip.detail)
    else:  # pragma: no cover - the incremental/naive floor always accepts
        raise AssertionError("engine ladder exhausted")

    resolution = EngineResolution(requested, op, chosen, tuple(skipped),
                                  workers=resolved_workers)
    if strict and requested != "auto" and chosen != requested:
        first = skipped[0]
        raise UnsupportedEngineError(
            f"engine {requested!r} cannot run op {op!r} on "
            f"{network.algebra.name} (n={network.n}): "
            f"[{first.code}] {first.detail} "
            f"(strict resolution; would have fallen back to {chosen!r})",
            resolution)
    return resolution
