"""Vectorized σ/δ engine for finite algebras: routes as small ints.

Theorem 7 lives on *finite* strictly increasing algebras (RIP-style hop
count, finite chains, bounded stratified levels).  Finiteness is not
just a proof device — it is an implementation opportunity: encode the
``m + 1`` routes of the carrier as ints ``0..m`` ordered by preference
(:meth:`repro.algebras.base.KeyOrderedAlgebra.finite_encoding`) and

* ⊕ becomes ``min`` on codes,
* every edge function becomes a dense ``(m + 1)``-entry lookup table,
* the routing state becomes an ``(n, n)`` int matrix ``C``, and
* one σ round becomes a generalised min-plus product:

      σ(C)[i][j] = min_k  T_{ik}[ C[k][j] ]        (diag forced to 0)

  evaluated for *all* edges and destinations at once with one fancy
  gather ``T[edge, C[src]]`` and one ``np.minimum.reduceat`` over the
  per-importer edge groups — no per-route Python calls at all.

Layered on the PR 1 dirty-set idea: entry ``(i, j)`` of σ(X) depends
only on column ``j`` of ``X``, so columns are independent and a round
needs to re-multiply only the **dirty columns** (those with an entry
that changed last round).  An empty dirty-column set is exactly
σ-stability, so fixed-point detection stays free.
:func:`iterate_sigma_vectorized` is the one σ loop over codes
(trajectory, cycle detection, convergence, and a churn count diffed
over the changed columns only): every codes rung supplies just its
round, :meth:`VectorizedEngine._advance`, and
:meth:`VectorizedEngine.sigma` / :meth:`~VectorizedEngine.is_stable`
are the loop's one-round cases.  δ runs on one
kernel, the *compiled-schedule step* (:meth:`VectorizedEngine.delta_grid`):
a precompiled schedule hands over activation bitmasks and β read-time
arrays, and every activation of a step becomes one flat gather against a
ring of historic code matrices, extended through the edge tables and
folded with ``np.minimum.reduceat`` (:func:`delta_fold`).  A single run
is the grid of one trial.

Capability & fallback
---------------------

This is the **vectorized** rung of the engine ladder.  The batched
rung (:class:`BatchedVectorizedEngine`) runs this rung's σ round as
is; :mod:`repro.core.parallel` and :mod:`repro.core.remote` override
only the round (:meth:`VectorizedEngine._advance`), sharding its
columns over worker processes or TCP workers, and inherit the
encoding, snapshot machinery, σ loop and δ step.

The engine needs numpy and a :class:`~repro.algebras.base.AlgebraEncoding`
(finite carrier, injective preference keys, default route equality).
:func:`supports_vectorized` reports capability;
:meth:`repro.session.RoutingSession.resolve` skips this rung for
unsupported algebras (``no-finite-encoding``), while constructing
:class:`VectorizedEngine` directly raises
:class:`~repro.core.algebra.UnsupportedAlgebraError` with the reason.

Cache discipline: edge tables are derived from the adjacency matrix and
rebuilt whenever ``adjacency.version`` moves (checked by
:meth:`VectorizedEngine.refresh` at the top of every public entry
point), so mid-run ``set_edge`` / ``remove_edge`` can never leave a
stale table behind — the vectorized mirror of the
:class:`~repro.core.state.NetworkTopology` invalidation contract.
"""

from __future__ import annotations

from typing import List, Optional

try:
    import numpy as np
except ImportError:                      # pragma: no cover - numpy is baked in
    np = None

from .algebra import RoutingAlgebra, UnsupportedAlgebraError
from .asynchronous import AsyncResult
from .capabilities import Capabilities, register_engine
from .schedule import CompiledSchedule
from .state import Network, RoutingState
from .synchronous import SyncResult

#: dtype for code matrices and tables; carriers are small, int32 is ample.
_DTYPE = "int32"


def gather_min_reduce(sub, tables, src, erange, importers, starts,
                      invalid_code):
    """The σ kernel: one gather/min-reduce over the columns of ``sub``.

    ``sub`` is the (column-restricted) code matrix; the remaining
    arguments are a topology snapshot in the flat layout built by
    :meth:`VectorizedEngine.refresh`.  Returns the new values with
    importer-less rows at ``invalid_code``; the Lemma-1 diagonal fix-up
    stays with the caller (it depends on which columns ``sub`` holds).
    Single source of truth for the kernel — the serial engine and every
    :mod:`repro.core.parallel` worker run exactly this code, so the
    master's σ-stability probe can never drift from the workers' rounds.
    """
    new = np.full(sub.shape, invalid_code, dtype=_DTYPE)
    if src.size:
        extended = tables[erange, sub[src]]
        new[importers] = np.minimum.reduceat(extended, starts, axis=0)
    return new


def delta_fold(ring, reads, edge_flat, starts, tables, affine=None):
    """The δ kernel: gather every activation's historic reads, extend
    them through their edges and ⊕ (= ``min`` on codes) per activation.

    ``reads`` is an integer-array index, so ``ring[reads]`` is a fresh
    ``(edges, width)`` copy — row ``e`` is the code row read along edge
    ``edge_flat[e]`` — and each activation's edges are one consecutive
    run starting at ``starts``.  The extension is a table gather, or
    with ``affine=(w, cap)`` (see :func:`affine_view`) the exact clipped
    shift ``min(x + w, cap)``, computed in place in that copy.
    Single source of truth for δ — the engines' compiled step and every
    :mod:`repro.core.remote` worker run exactly this code.
    """
    gathered = ring[reads]
    if affine is not None:
        w, cap = affine
        ext = np.add(gathered, w[edge_flat], out=gathered)
        np.minimum(ext, cap[edge_flat], out=ext)
    else:
        ext = tables[edge_flat[:, None], gathered]
    return np.minimum.reduceat(ext, starts, axis=0)


def affine_view(tables, dtype):
    """``(w, cap)`` with ``tables[e][x] == min(x + w[e], cap[e])`` for
    every entry, in ``dtype``, or ``None`` when any table is not such a
    clipped shift (checked element-wise, so the view is exact)."""
    w = tables[:, :1]
    cap = tables[:, -1:]
    ar = np.arange(tables.shape[1], dtype=_DTYPE)[None, :]
    if not (tables == np.minimum(ar + w, cap)).all():
        return None
    return w.astype(dtype), cap.astype(dtype)


def _concat_ranges(counts):
    """``concatenate([arange(c) for c in counts])`` without a Python loop."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) - np.repeat(ends - counts, counts)


def supports_vectorized(algebra: RoutingAlgebra) -> bool:
    """True when the vectorized engine can run this algebra.

    Requires numpy, a finite carrier, the FiniteEncoding protocol, and a
    successfully built encoding (injective preference keys, 0̄ first, ∞̄
    last).  Used by the engine selectors to decide between dispatch and
    fallback.
    """
    if np is None or not getattr(algebra, "is_finite", False):
        return False
    builder = getattr(algebra, "finite_encoding", None)
    if builder is None:
        return False
    try:
        builder()
    except UnsupportedAlgebraError:
        return False
    return True


class VectorizedEngine:
    """σ/δ over int-encoded routing states for one network.

    The engine snapshots the adjacency matrix into flat arrays —
    ``_src[e]`` (exporter of edge ``e``), ``_tables[e]`` (its dense
    lookup table), edges grouped by importer with group starts
    ``_starts`` aligned to ``_importers`` — and refreshes the snapshot
    whenever ``adjacency.version`` moves.  States cross the boundary via
    :meth:`encode_state` / :meth:`decode_state`.

    δ has one kernel, the compiled-schedule step of :meth:`delta_grid`:
    a single run is the grid of one trial, and every codes-based rung
    that runs δ in process (vectorized, parallel, batched) runs it.
    """

    #: advertised to the capability resolver (see
    #: :mod:`repro.core.capabilities`): needs a finite encoding; δ runs
    #: on a bounded ring, so kept histories and schedules without a
    #: declared staleness bound fall to the incremental rung.
    capabilities = register_engine(Capabilities(
        rung="vectorized",
        requires_finite_algebra=True,
        supports_unbounded_schedules=False,
        supports_kept_history=False,
    ))

    def __init__(self, network: Network):
        if np is None:
            raise UnsupportedAlgebraError(
                "vectorized engine unavailable: numpy is not installed")
        builder = getattr(network.algebra, "finite_encoding", None)
        if builder is None:
            raise UnsupportedAlgebraError(
                f"{network.algebra.name}: does not implement the "
                "FiniteEncoding protocol")
        self.network = network
        self.encoding = builder()        # raises for non-finite carriers
        self.trivial_code = self.encoding.trivial_code
        self.invalid_code = self.encoding.invalid_code
        self._version: Optional[int] = None
        self.refresh()

    # ------------------------------------------------------------------
    # Topology snapshot
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Rebuild edge arrays iff the adjacency matrix has mutated."""
        adjacency = self.network.adjacency
        if self._version == adjacency.version:
            return
        topo = adjacency.topology
        n = self.network.n
        size = self.encoding.size
        srcs: List[int] = []
        tables: List[List[int]] = []
        importers: List[int] = []
        counts: List[int] = []
        built = {}                       # id(fn) -> table, this snapshot only
        for i in range(n):
            edges = topo.in_edges[i]
            if not edges:
                continue
            importers.append(i)
            counts.append(len(edges))
            for (k, fn) in edges:
                srcs.append(k)
                table = built.get(id(fn))
                if table is None:
                    table = self.encoding.edge_table(fn)
                    built[id(fn)] = table
                tables.append(table)
        n_edges = len(srcs)
        self._n = n
        self._src = np.asarray(srcs, dtype=np.intp)
        self._tables = (np.asarray(tables, dtype=_DTYPE)
                        if n_edges else np.zeros((0, size), dtype=_DTYPE))
        self._erange = np.arange(n_edges)[:, None]
        self._importers = np.asarray(importers, dtype=np.intp)
        starts = np.zeros(len(importers), dtype=np.intp)
        if len(importers) > 1:
            starts[1:] = np.cumsum(counts[:-1])
        self._starts = starts
        offsets = {}
        degrees = {}
        offset = 0
        for i, count in zip(importers, counts):
            offsets[i] = offset
            degrees[i] = count
            offset += count
        self._offsets = offsets
        self._degrees = degrees
        self._version = adjacency.version

    # ------------------------------------------------------------------
    # State codecs
    # ------------------------------------------------------------------

    def encode_state(self, state: RoutingState) -> "np.ndarray":
        """``RoutingState`` → ``(n, n)`` int code matrix."""
        if self.encoding.identity:
            matrix = np.asarray(state.rows)
            # the fast path is only sound for genuinely integer routes —
            # casting would silently truncate e.g. 2.5 into the carrier;
            # anything else drops to the per-route dict path below, which
            # rejects out-of-carrier routes exactly
            if matrix.dtype.kind in "iu":
                # bounds-check BEFORE the int32 cast: a wider route like
                # 2**32 would otherwise wrap into the carrier silently
                if matrix.size and (matrix.min() < 0 or
                                    matrix.max() >= self.encoding.size):
                    raise UnsupportedAlgebraError(
                        f"{self.network.algebra.name}: state contains "
                        "routes outside the finite carrier")
                return matrix.astype(_DTYPE, copy=False)
        index = self.encoding.index
        try:
            rows = [[index[route] for route in row] for row in state.rows]
        except (KeyError, TypeError):
            raise UnsupportedAlgebraError(
                f"{self.network.algebra.name}: state contains routes "
                "outside the finite carrier") from None
        return np.asarray(rows, dtype=_DTYPE)

    def decode_state(self, matrix: "np.ndarray") -> RoutingState:
        """``(n, n)`` int code matrix → ``RoutingState``."""
        codes = self.encoding.codes
        return RoutingState.adopt(
            [[codes[c] for c in row] for row in matrix.tolist()])

    # ------------------------------------------------------------------
    # σ
    # ------------------------------------------------------------------

    def _sigma_codes(self, C: "np.ndarray",
                     cols: Optional["np.ndarray"] = None) -> "np.ndarray":
        """One σ round on codes, over all columns or just ``cols``.

        Column independence (entry (i, j) reads only column j) makes the
        restricted recompute exact, not approximate.
        """
        sub = C if cols is None else C[:, cols]
        new = gather_min_reduce(sub, self._tables, self._src, self._erange,
                                self._importers, self._starts,
                                self.invalid_code)
        if cols is None:
            np.fill_diagonal(new, self.trivial_code)  # Lemma 1
        else:
            new[cols, np.arange(len(cols))] = self.trivial_code
        return new

    def _advance(self, C: "np.ndarray", dirty: Optional["np.ndarray"]):
        """``(C, dirty columns) → (σ(C), changed columns)``: one σ round,
        the only step a codes rung supplies to :func:`iterate_sigma_vectorized`.

        ``dirty=None`` means "unknown — full round" (the first round of
        a run).  Otherwise ``C`` is the array the previous call returned
        and ``dirty`` its changed columns, so only those are recomputed.
        Untouched columns are carried over by copy; an empty result is
        exactly σ-stability.  ``C`` itself is never written.
        """
        if dirty is None:
            new = self._sigma_codes(C)
            return new, np.nonzero((new != C).any(axis=0))[0]
        if dirty.size == 0:
            return C, dirty
        new_sub = self._sigma_codes(C, dirty)
        changed = dirty[(new_sub != C[:, dirty]).any(axis=0)]
        if changed.size == 0:
            return C, changed
        nxt = C.copy()
        nxt[:, dirty] = new_sub
        return nxt, changed

    def sigma(self, state: RoutingState) -> RoutingState:
        """One σ round (decoded), on this engine's round; the
        lockstep-oracle entry point."""
        return iterate_sigma_vectorized(self.network, state, max_rounds=1,
                                        engine=self).state

    def is_stable(self, state: RoutingState) -> bool:
        """Definition 4 on this engine's round: σ(X) = X."""
        return iterate_sigma_vectorized(self.network, state, max_rounds=1,
                                        engine=self).converged

    # ------------------------------------------------------------------
    # δ
    # ------------------------------------------------------------------

    def _node_arrays(self):
        """``(degree, offset)`` arrays indexed by node: node ``i``'s
        in-edges are ``_src[offset[i]:offset[i] + degree[i]]``."""
        if getattr(self, "_node_arrays_version", None) != self._version:
            deg = np.zeros(self._n, dtype=np.intp)
            off = np.zeros(self._n, dtype=np.intp)
            for i, d in self._degrees.items():
                deg[i] = d
                off[i] = self._offsets[i]
            self._deg_arr, self._off_arr = deg, off
            self._node_arrays_version = self._version
        return self._deg_arr, self._off_arr

    @property
    def _batch_dtype(self):
        """Narrowest dtype the stacked code tensors fit in.

        Finite carriers are small (hop bounds, levels); int16 halves
        the memory traffic of every gather/fold/compare in the δ step,
        which is bandwidth-bound.  The margin (``2 · size``)
        keeps the affine fast path's ``x + w`` sum in range too.
        """
        return np.int16 if 2 * self.encoding.size < 32_000 else _DTYPE

    def _affine_tables(self):
        """``(w, cap)`` — the clipped-shift view of the edge tables —
        when it is exact, else ``None``.

        Many finite encodings produce tables of the form
        ``T[x] = min(x + w, cap)`` (hop count and weighted chains: the
        carrier is preference-ordered, an edge adds a cost, ∞̄ absorbs).
        Verified *element-wise* against the real tables at snapshot
        time, so the fast path is exact or unused — never approximate.
        When it holds, the δ kernel's per-element table gather (a 2-D
        fancy index, the most expensive op in the δ step) becomes two
        SIMD-friendly arithmetic ops, in the batch dtype.
        """
        if getattr(self, "_affine_version", None) != self._version:
            self._affine = affine_view(self._tables, self._batch_dtype)
            self._affine_version = self._version
        return self._affine

    def _slot_segment(self, comp, t: int, deg_arr, off_arr):
        """Flat read-time array over ``comp``'s active, degree > 0
        importers at ``t``, aligned to the snapshot's edge layout.

        Cached per (schedule, step): trials replicate schedules across
        starting states, and the pair list of a step is exactly the
        per-trial concatenation of these segments, so the β work of a
        step is paid once per *distinct* schedule, not once per trial.
        The cache lives for one run (:meth:`delta_grid` resets it)."""
        cache = self._seg_cache
        if cache.get("t") != t:
            cache.clear()
            cache["t"] = t
        seg = cache.get(id(comp))
        if seg is None:
            mask = comp.alpha_mask(t)
            nodes = np.nonzero(mask)[0]
            nodes = nodes[deg_arr[nodes] > 0]
            total = int(deg_arr[nodes].sum())
            uniform = comp.beta_uniform(t)
            if uniform is not None:
                seg = np.full(total, uniform, dtype=np.int64)
            elif total:
                src = self._src
                seg = np.concatenate(
                    [comp.beta_times_for(
                        t, int(i), src[off_arr[i]:off_arr[i] + deg_arr[i]])
                     for i in nodes.tolist()])
            else:
                seg = np.empty(0, dtype=np.int64)
            cache[id(comp)] = seg
        return seg

    def _delta_step_batch(self, ring, W: int, t: int, scheds, live,
                          windows, prev, nxt, copy, last_change,
                          prev_read_min, sigma_ok=None,
                          const_ok=None) -> "np.ndarray":
        """One δ step for every live trial; returns ``(B,)`` changed flags.

        ``prev``/``nxt`` are the ring slots for ``t - 1`` and ``t``;
        the trials listed in ``copy`` get their ``nxt`` slice
        initialised from ``prev`` (the caller omits trials whose state
        has been constant for a full ring — their slots already hold
        the current state) and active rows are overwritten in place.
        The whole step is one fused gather/fold: every (trial, active
        node, in-edge) triple becomes one row of a flat extension
        matrix, reduced per activation with ``minimum.reduceat``.
        Read-time blocks come from the compiled schedules —
        one constant fill for uniform-β schedules
        (:meth:`~repro.core.schedule.Schedule.beta_uniform`), a cached
        in-neighbour slice otherwise
        (:meth:`~repro.core.schedule.CompiledSchedule.beta_times_for`).

        ``last_change``/``prev_read_min`` are the batch analogue of the
        incremental engine's :class:`~repro.core.incremental.DeltaRowCache`:
        ``last_change[b, k]`` is the last step trial ``b``'s row ``k``
        changed, ``prev_read_min[b, i]`` the earliest read time of
        ``i``'s previous activation.  An activation whose every source
        row provably hasn't changed between its previous reads and its
        current ones recomputes the same row (entry-wise σ over equal
        inputs), so the pair is *skipped* — no gather, no fold, no
        compare — which is what turns high-activation-rate schedules'
        long quiet phases from O(E · n) into O(E) per step.

        ``sigma_ok``/``const_ok`` fuse the σ-stability probe into the
        step (the *σ-residual certificate*): an activation whose every
        source row's **post-step** last change is at or before the
        activation's earliest read computed its row against the
        *current* source rows, i.e. the row already equals its σ-row —
        ``sigma_ok[b, i]`` records that.  Any change in trial ``b``
        invalidates all its certificates (a source may have moved);
        rows with no in-edges always produce the same constant σ-row,
        so one activation certifies them permanently (``const_ok``).
        The candidate probe in :meth:`delta_grid` then σ-checks only
        the uncertified rows — usually none after a full quiet window —
        instead of recomputing σ over the whole ``(n, n)`` state.
        """
        n = self._n
        B = ring.shape[1]
        changed = np.zeros(B, dtype=bool)
        act = np.zeros((B, n), dtype=bool)
        for b in live:
            act[b] = scheds[b].alpha_mask(t)
        if copy.size:
            nxt[copy] = prev[copy]
        pairs_b, pairs_i = np.nonzero(act)
        if pairs_b.size == 0:
            return changed
        deg_arr, off_arr = self._node_arrays()
        d = deg_arr[pairs_i]
        has_edges = d > 0
        eb, ei, ed = pairs_b[has_edges], pairs_i[has_edges], d[has_edges]
        zb, zi = pairs_b[~has_edges], pairs_i[~has_edges]

        cert = None
        if eb.size:
            src = self._src
            starts = np.zeros(ed.size, dtype=np.intp)
            starts[1:] = np.cumsum(ed[:-1])
            # pairs are b-major / i-ascending — exactly the per-trial
            # concatenation of the cached per-(schedule, t) segments
            trial_ids = np.unique(eb)
            slot = np.concatenate(
                [self._slot_segment(scheds[b], t, deg_arr, off_arr)
                 for b in trial_ids.tolist()])
            rep_b = np.repeat(eb, ed)
            bad = (slot < 0) | (slot >= t) | ((t - slot) > windows[rep_b])
            if bad.any():
                k = int(np.nonzero(bad)[0][0])
                raise LookupError(
                    f"δ history for time {int(slot[k])} is outside trial "
                    f"{int(rep_b[k])}'s ring window "
                    f"(window={int(windows[rep_b[k]])}, t={t}); the "
                    "schedule reads further back than its declared "
                    "max_read_back — run RoutingSession.delta(..., "
                    "strict=True) to keep the full history")
            edge_flat = np.repeat(off_arr[ei], ed) + _concat_ranges(ed)
            src_flat = src[edge_flat]
            # -- read-diff skip (vectorized DeltaRowCache) --------------
            # sound because entry (i, j) is a pure fold of the sources'
            # reads: if no source row changed anywhere in the span
            # between the previous activation's reads and this one's,
            # the fold recomputes the row it already produced.
            read_min = np.minimum.reduceat(slot, starts)
            lc_max = np.maximum.reduceat(last_change[rep_b, src_flat],
                                         starts)
            # pre-skip views for the σ-residual certificate, evaluated
            # at the end of the step against the post-update last_change
            cert = (eb, ei, rep_b, src_flat, starts, read_min)
            skip = lc_max <= np.minimum(read_min, prev_read_min[eb, ei])
            prev_read_min[eb, ei] = read_min
            if skip.any():
                keep = ~skip
                keep_edges = np.repeat(keep, ed)
                eb, ei, ed = eb[keep], ei[keep], ed[keep]
                edge_flat = edge_flat[keep_edges]
                src_flat = src_flat[keep_edges]
                slot = slot[keep_edges]
                rep_b = rep_b[keep_edges]
                starts = np.zeros(ed.size, dtype=np.intp)
                starts[1:] = np.cumsum(ed[:-1])
        if eb.size:
            folded = delta_fold(ring, (slot % W, rep_b, src_flat), edge_flat,
                                starts, self._tables, self._affine_tables())
            folded[np.arange(ei.size), ei] = self.trivial_code
            row_changed = (folded != prev[eb, ei, :]).any(axis=1)
            nxt[eb, ei, :] = folded
            hit = row_changed
            changed[eb[hit]] = True
            last_change[eb[hit], ei[hit]] = t
        if zb.size:
            rows = np.full((zb.size, n), self.invalid_code,
                           dtype=ring.dtype)
            rows[np.arange(zb.size), zi] = self.trivial_code
            row_changed = (rows != prev[zb, zi, :]).any(axis=1)
            nxt[zb, zi, :] = rows
            hit = row_changed
            changed[zb[hit]] = True
            last_change[zb[hit], zi[hit]] = t
        if sigma_ok is not None:
            # any change invalidates the trial's certificates (a source
            # may have moved under a certified row) — reset BEFORE
            # recording this step's, which already account for every
            # change up to and including t
            sigma_ok[changed] = False
            if cert is not None:
                ceb, cei, crep_b, csrc, cstarts, cread_min = cert
                lc_post = np.maximum.reduceat(last_change[crep_b, csrc],
                                              cstarts)
                ok = lc_post <= cread_min
                sigma_ok[ceb[ok], cei[ok]] = True
            if const_ok is not None and zb.size:
                const_ok[zb, zi] = True
        return changed

    def _sigma_rows(self, C: "np.ndarray", rows: "np.ndarray"
                    ) -> "np.ndarray":
        """σ(C) restricted to ``rows`` of a single ``(n, n)`` state —
        exactly the values :meth:`_sigma_codes` would put there.

        The row-restricted fallback probe for trials whose σ-residual
        certificate (see :meth:`_delta_step_batch`) doesn't yet cover
        every row at candidate time."""
        n = self._n
        deg_arr, off_arr = self._node_arrays()
        out = np.full((rows.size, n), self.invalid_code, dtype=_DTYPE)
        d = deg_arr[rows]
        has = d > 0
        er, ed = rows[has], d[has]
        if er.size:
            starts = np.zeros(ed.size, dtype=np.intp)
            starts[1:] = np.cumsum(ed[:-1])
            edge_flat = np.repeat(off_arr[er], ed) + _concat_ranges(ed)
            out[has] = delta_fold(C, self._src[edge_flat], edge_flat,
                                  starts, self._tables)
        out[np.arange(rows.size), rows] = self.trivial_code
        return out

    def delta_grid(self, trials, max_steps: int = 2_000,
                   stability_window: Optional[int] = None
                   ) -> List[AsyncResult]:
        """Run δ for every ``(schedule, start)`` trial as one workload:
        the compiled-schedule step, and the only δ kernel on codes.

        Returns one :class:`~repro.core.asynchronous.AsyncResult` per
        trial, in order, each observationally identical to the strict
        literal recursion — converged flag, convergence step and fixed
        point (the differential oracle in
        ``tests/core/test_engine_equivalence.py`` enforces it).  A single
        δ run is the grid of one trial.

        Trials stack along a batch axis of a ``(W, B, n, n)`` history
        ring, and every step runs the activations of *all* live trials
        as one fused gather/fold (:meth:`_delta_step_batch`).  Schedules
        are precompiled (:class:`~repro.core.schedule.CompiledSchedule`)
        so α bitmask rows and β read-time arrays are array lookups, not
        per-(t, i, j) Python calls.  Each trial keeps its own
        unchanged-step counter and stability window; finished trials
        drop out of the activation mask, and the grid ends when every
        trial has converged or exhausted ``max_steps``.

        Staleness mirrors :class:`~repro.core.incremental.BoundedHistory`
        per trial: reads further back than the trial's declared
        ``max_read_back() + 2`` raise :class:`LookupError` when the run
        reaches them; schedules that declare **no** bound run against
        their *derived* bound (exact over the compiled horizon).
        """
        self.refresh()
        B = len(trials)
        if B == 0:
            return []
        n = self._n
        scheds: List[CompiledSchedule] = []
        windows = np.empty(B, dtype=np.int64)
        sws = np.empty(B, dtype=np.int64)
        compiled = {}   # id(schedule) -> compiled form, shared across trials
        for b, (sched, _start) in enumerate(trials):
            comp = compiled.get(id(sched))
            if comp is None:
                comp = CompiledSchedule.ensure(sched, max_steps)
                compiled[id(sched)] = comp
            scheds.append(comp)
            declared = comp.source.max_read_back()
            # declared bounds get the BoundedHistory tolerance (+2);
            # undeclared ones get the exact bound their compiled reads
            # attain — the ring substitute for "keep the full history"
            windows[b] = (declared + 2 if declared is not None
                          else comp.derived_max_read_back())
            sws[b] = (stability_window if stability_window is not None
                      else (declared or 1) + 2)
        W = int(windows.max()) + 1
        ring = np.empty((W, B, n, n), dtype=self._batch_dtype)
        ring[0] = np.stack([self.encode_state(start)
                            for (_sched, start) in trials])
        self._seg_cache: dict = {}       # per-(schedule, step) β segments

        done = np.zeros(B, dtype=bool)
        unchanged = np.zeros(B, dtype=np.int64)
        converged = np.zeros(B, dtype=bool)
        steps_res = np.full(B, max_steps, dtype=np.int64)
        conv_at: List[Optional[int]] = [None] * B
        final: List[Optional["np.ndarray"]] = [None] * B
        # read-diff skip state (see _delta_step_batch): row k of trial b
        # last changed at step last_change[b, k] (the start counts as a
        # change at 0); prev_read_min[b, i] = earliest read time of i's
        # previous activation (-1 = never activated, never skippable)
        last_change = np.zeros((B, n), dtype=np.int64)
        prev_read_min = np.full((B, n), -1, dtype=np.int64)
        # σ-residual certificates (see _delta_step_batch): rows already
        # provably equal to their σ-row, so the candidate probe below
        # only touches the (usually empty) uncertified remainder
        sigma_ok = np.zeros((B, n), dtype=bool)
        const_ok = np.zeros((B, n), dtype=bool)

        for t in range(1, max_steps + 1):
            live = np.nonzero(~done)[0]
            if live.size == 0:
                break
            prev = ring[(t - 1) % W]
            nxt = ring[t % W]
            # a trial constant for >= W steps has every ring slot equal
            # to its current state — the prev→nxt copy is a no-op; skip
            # it (long quiet tails of sparse-activation schedules
            # otherwise pay a B·n² memcpy per step for nothing)
            copy = live[unchanged[live] < W]
            changed = self._delta_step_batch(ring, W, t, scheds, live,
                                             windows, prev, nxt, copy,
                                             last_change, prev_read_min,
                                             sigma_ok, const_ok)
            unchanged[live] = np.where(changed[live], 0, unchanged[live] + 1)
            cand = live[unchanged[live] >= sws[live]]
            for b in cand.tolist():
                # certified rows are already known σ-consistent; probe
                # only the remainder — the decision is identical to the
                # full σ(C) == C check, it just skips proven rows
                uncovered = np.nonzero(~(sigma_ok[b] | const_ok[b]))[0]
                if uncovered.size:
                    sub = nxt[b]
                    if not (self._sigma_rows(sub, uncovered)
                            == sub[uncovered]).all():
                        continue
                    sigma_ok[b, uncovered] = True
                done[b] = True
                converged[b] = True
                steps_res[b] = t
                conv_at[b] = t - int(unchanged[b])
                final[b] = nxt[b].copy()
        for b in np.nonzero(~done)[0].tolist():
            final[b] = ring[max_steps % W][b].copy()

        return [AsyncResult(bool(converged[b]), int(steps_res[b]),
                            self.decode_state(final[b]), conv_at[b], None,
                            history_retained=min(int(steps_res[b]) + 1,
                                                 int(windows[b])))
                for b in range(B)]


# ----------------------------------------------------------------------
# Batched multi-trial engine
# ----------------------------------------------------------------------


class BatchedVectorizedEngine(VectorizedEngine):
    """The rung that runs whole δ grids, stacked along a batch axis.

    The vectorized engine made one *trial* an array computation;
    experiments, however, run *grids* of trials — the
    absolute-convergence experiment (Definition 8) quantifies over
    (starting state × schedule) pairs — and looping Python over trials
    re-pays the per-step interpreter overhead B times.  This rung runs
    a grid as one inherited :meth:`~VectorizedEngine.delta_grid` over
    every trial at once (a single δ run is the same step with B = 1).
    σ is the vectorized rung's round, inherited as is.
    """

    #: batching stacks trials; single δ runs need a bounded ring
    #: (deriving a bound for an undeclared schedule only pays across a
    #: grid).
    capabilities = register_engine(Capabilities(
        rung="batched",
        requires_finite_algebra=True,
        supports_unbounded_schedules=False,
        supports_kept_history=False,
    ))


# ----------------------------------------------------------------------
# The σ loop over codes (SyncResult compatible)
# ----------------------------------------------------------------------


def iterate_sigma_vectorized(network: Network, start: RoutingState,
                             max_rounds: int = 10_000,
                             keep_trajectory: bool = False,
                             detect_cycles: bool = False,
                             engine: Optional[VectorizedEngine] = None
                             ) -> SyncResult:
    """The σ iteration on codes (a :class:`SyncResult`): the one loop
    every codes rung runs, on ``engine``'s round.

    Trajectory, cycle detection, convergence (an empty changed-column
    set) and the churn count (entries that differ between consecutive
    states, diffed over the changed columns only — a finite encoding
    maps equal routes to equal codes and distinct routes to distinct
    codes) live here; the engine supplies one round,
    :meth:`VectorizedEngine._advance`.  Same trajectory, fixed point,
    round count and churn as the object-model rungs — the differential
    oracle in ``tests/core/test_engine_equivalence.py`` holds it to
    that.  Pass ``engine`` to run on a prebuilt engine of any codes rung
    (its caches auto-refresh on topology changes); without one, a
    serial :class:`VectorizedEngine` is built for the call.
    """
    eng = engine if engine is not None else VectorizedEngine(network)
    eng.refresh()
    C = eng.encode_state(start)
    trajectory: Optional[List[RoutingState]] = \
        [start] if keep_trajectory else None
    seen = {C.tobytes(): 0} if detect_cycles else None
    churn = 0
    dirty = None
    for k in range(max_rounds):
        nxt, dirty = eng._advance(C, dirty)
        if keep_trajectory:
            trajectory.append(eng.decode_state(nxt))
        if dirty.size == 0:
            return SyncResult(True, k, eng.decode_state(C), trajectory,
                              churn)
        churn += int((nxt[:, dirty] != C[:, dirty]).sum())
        if detect_cycles:
            key = nxt.tobytes()
            if key in seen:
                return SyncResult(False, k + 1, eng.decode_state(nxt),
                                  trajectory, churn)
            seen[key] = k + 1
        C = nxt
    return SyncResult(False, max_rounds, eng.decode_state(C), trajectory,
                      churn)
