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

  evaluated for *all* edges and destinations at once — each importer
  one activation of the δ kernel :func:`delta_fold`: gather ``C[src]``,
  extend through the tables (or their exact clipped-shift view) and one
  ``np.minimum.reduceat`` over the per-importer edge groups, in
  cache-sized tiles — no per-route Python calls at all.

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
are the loop's one-round cases.  Likewise
:meth:`VectorizedEngine.delta_grid` is the one δ loop: a rung supplies
only how a run starts, a window of steps and the state at a step.  δ
runs on one kernel, the *compiled-schedule step*: a
precompiled schedule hands over activation bitmasks and β read-time
arrays, and every activation of a step becomes one flat gather against a
ring of historic code matrices, extended through the edge tables and
folded with ``np.minimum.reduceat`` (:func:`delta_fold`).  A single run
is the grid of one trial, and in process a grid's trials stack along
the batch axis of one ring, folded in cache-sized tiles.

Primitives and transports
-------------------------

Every codes-rung primitive is written once, here:

* :class:`TopologySnapshot` — one adjacency version in the flat edge
  layout, with its one export/restore pair for worker processes and
  its activation edge layout (:meth:`TopologySnapshot.edges`);
* :func:`sigma_block_round` — the column-block σ round (kernel
  :func:`delta_fold`, Lemma 1 diagonal, changed columns);
* :func:`delta_fold` — the one kernel, of δ's steps and σ's rounds.

This is the **vectorized** rung of the engine ladder.  The batched
rung (:class:`BatchedVectorizedEngine`) is this rung under another
name; :mod:`repro.core.parallel` and :mod:`repro.core.remote` keep only
transport, lifecycle and supervision: they ship the snapshot to their
workers, run :func:`sigma_block_round` (and, remotely,
:func:`delta_fold`) there on column blocks, and inherit the encoding,
the σ loop and the δ loop.

The engine needs a :class:`~repro.algebras.base.AlgebraEncoding`
(finite carrier, injective preference keys, default route equality).
:func:`supports_vectorized` reports capability;
:meth:`repro.session.RoutingSession.resolve` skips this rung for
unsupported algebras (``no-finite-encoding``), while constructing
:class:`VectorizedEngine` directly raises
:class:`~repro.core.algebra.UnsupportedAlgebraError` with the reason.

Cache discipline: the snapshot is derived from the adjacency matrix and
replaced whenever ``adjacency.version`` moves (checked by
:meth:`VectorizedEngine.refresh` at the top of every public entry
point), so mid-run ``set_edge`` / ``remove_edge`` can never leave a
stale table behind — the vectorized mirror of the
:class:`~repro.core.state.NetworkTopology` invalidation contract.  The
new snapshot is the old one patched for the arcs in the adjacency's
arc log since its version, so a one-arc write costs at most one edge
table and one O(E) merge; only construction, or a log that no longer
reaches back that far, rebuilds every table.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional

import numpy as np

from .algebra import RoutingAlgebra, UnsupportedAlgebraError
from .asynchronous import AsyncResult
from .capabilities import Capabilities, register_engine
from .schedule import CompiledSchedule
from .state import Network, RoutingState
from .synchronous import SyncResult

#: dtype for code matrices and tables; carriers are small, int32 is ample.
_DTYPE = "int32"

#: extension elements one :func:`delta_fold` tile holds at most: about
#: half a megabyte of int16 codes, small enough to stay in cache.
FOLD_TILE = 1 << 18

#: bytes the ``(W, B, n, n)`` history ring of one stack of trials may
#: take (see :meth:`VectorizedEngine._stack_width`).
RING_BUDGET = 64 << 20


def _concat_ranges(counts):
    """``concatenate([arange(c) for c in counts])`` without a Python loop."""
    total = int(counts.sum())
    ends = np.cumsum(counts)
    return np.arange(total) - np.repeat(ends - counts, counts)


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


class TopologySnapshot:
    """One adjacency version in the flat edge layout every codes rung reads.

    Edges are grouped by importer, importers ascending: node ``i``'s
    in-edges are the run ``off[i] .. off[i] + deg[i]`` of ``src``
    (exporter of each edge, ascending) and ``tables`` (its dense lookup
    table), so edges are in the order of their arc key ``i·n + k``;
    ``importers`` / ``starts`` are the nodes with in-edges and where
    their runs begin — the σ round's ``minimum.reduceat`` groups.
    ``src``, ``tables`` and ``deg`` are the whole snapshot; the rest is
    derived from them, and :meth:`export` / :meth:`restore` carry it
    to the worker processes of the parallel and remote rungs.
    """

    def __init__(self, src, tables, deg):
        if int(deg.sum()) != src.size or tables.shape[0] != src.size:
            raise ValueError(
                f"inconsistent topology snapshot: {src.size} edge sources, "
                f"{tables.shape[0]} tables, degrees summing to "
                f"{int(deg.sum())}")
        self.src = src
        self.tables = tables
        self.deg = deg
        self.off = np.cumsum(deg) - deg
        self.importers = np.nonzero(deg)[0]
        self.starts = self.off[self.importers]

    @property
    def dtype(self):
        """Narrowest dtype δ's code tensors (the engine's batch ring, a
        remote worker's ring) fit in.

        Finite carriers are small (hop bounds, levels); int16 halves
        the memory traffic of every gather/fold/compare in the δ step,
        which is bandwidth-bound.  The margin (``2 · size``) keeps the
        affine fast path's ``x + w`` sum in range too.
        """
        return np.int16 if 2 * self.tables.shape[1] < 32_000 else _DTYPE

    @cached_property
    def affine(self):
        """``(w, cap)`` — the clipped-shift view of the edge tables, in
        :attr:`dtype` — when it is exact, else ``None``.

        Many finite encodings produce tables of the form
        ``T[x] = min(x + w, cap)`` (hop count and weighted chains: the
        carrier is preference-ordered, an edge adds a cost, ∞̄ absorbs).
        Verified *element-wise* against the real tables (see
        :func:`affine_view`), so the fast path is exact or unused —
        never approximate.  When it holds, the δ kernel's per-element
        table gather (a 2-D fancy index, the most expensive op in the δ
        step) becomes two SIMD-friendly arithmetic ops, in δ's steps and
        σ's rounds alike.  Computed on first use, once per snapshot —
        or, for a snapshot :meth:`patched` from one with an exact view,
        carried through the patch after checking only the new arcs.
        """
        return affine_view(self.tables, self.dtype)

    def patched(self, drop, keys, tables) -> "TopologySnapshot":
        """A new snapshot: this one without the arcs ``drop`` and with
        the arcs ``keys`` and their dense ``tables`` merged in.

        Arcs are keyed ``i·n + k`` (``drop`` and ``keys`` sorted and
        unique), the order of the flat edge layout, so the patch is one
        merge by key of the kept rows and the new ones: O(E + Δ) array
        work whatever the number Δ of changed arcs.  This snapshot is
        left as it was — its holders (a worker rung's last publish)
        compare snapshots by identity.
        """
        n = self.deg.size
        old = np.repeat(np.arange(n), self.deg) * n + self.src
        kept = np.flatnonzero(~np.isin(old, drop, assume_unique=True,
                                       kind="sort"))
        # the new layout, as rows of this snapshot's rows then the new
        rows = np.insert(kept, np.searchsorted(old[kept], keys),
                         old.size + np.arange(keys.size))
        merged = np.concatenate((old, keys))[rows]
        out = TopologySnapshot(
            merged % n, np.concatenate((self.tables, tables)).take(rows, 0),
            np.bincount(merged // n, minlength=n))
        view = self.__dict__.get("affine")
        if view is not None:
            # an exact view stays exact iff the new arcs' tables are
            # clipped shifts: check only those, and gather the kept
            # rows' (w, cap) like the tables (a view that is None or not
            # computed yet is checked in full on first use: removing the
            # one non-affine arc can make it exact)
            extra = affine_view(tables, out.dtype)
            out.affine = None if extra is None else tuple(
                np.concatenate(pair).take(rows, 0)
                for pair in zip(view, extra))
        return out

    def edges(self, nodes):
        """The activation edge layout of ``nodes`` (each with in-edges):
        ``(edge_flat, starts)`` — every in-edge of every node, node by
        node, and where each node's run begins."""
        d = self.deg[nodes]
        return (np.repeat(self.off[nodes], d) + _concat_ranges(d),
                np.cumsum(d) - d)

    def export(self):
        """``(meta, tables)``: the JSON-able half of the snapshot and its
        dense tables, which each transport ships its own way (shared
        memory for the pool, a raw tail on the wire)."""
        return ({"src": self.src.tolist(), "deg": self.deg.tolist(),
                 "tables_shape": list(self.tables.shape)}, self.tables)

    @classmethod
    def restore(cls, meta, tables) -> "TopologySnapshot":
        """The snapshot :meth:`export` gave ``meta`` for, around the
        transported ``tables``."""
        return cls(np.asarray(meta["src"], dtype=np.intp), tables,
                   np.asarray(meta["deg"], dtype=np.intp))


def sigma_block_round(topo: TopologySnapshot, block, cols, lo: int,
                      trivial_code, invalid_code):
    """One σ round over columns ``cols`` of a column block: writes the
    new values of those columns into ``block`` and returns the ones
    that changed (block-local, in the order of ``cols``).

    ``block`` holds columns ``lo ..`` of the code matrix (the whole
    matrix with ``lo = 0``) and ``cols`` are block-local.  Column
    independence (entry (i, j) of σ(X) reads only column j of X) makes
    the restricted recompute exact and the in-place write sound: no
    column of the round reads another.  Every importer is one
    activation of the δ kernel :func:`delta_fold` reading the round's
    frozen input along all its in-edges; importer-less rows are
    ``invalid_code``, and the Lemma-1 diagonal is set here.  Single
    source of truth for the round — the serial engine, every
    :mod:`repro.core.parallel` worker and every :mod:`repro.core.remote`
    worker run exactly this code, so the rungs can never drift apart.
    """
    if not cols.size:
        return cols
    # a C-ordered copy (``block[:, cols]`` would be F-ordered, which
    # slows the kernel's row gather): the round's frozen input
    sub = block.take(cols, axis=1)
    new = np.full(sub.shape, invalid_code, dtype=_DTYPE)
    if topo.src.size:
        new[topo.importers] = delta_fold(
            sub, (topo.src,), np.arange(topo.src.size), topo.starts,
            topo.tables, topo.affine)
    new[lo + cols, np.arange(cols.size)] = trivial_code  # Lemma 1
    block[:, cols] = new
    return cols[(new != sub).any(axis=0)]


def delta_fold(ring, reads, edge_flat, starts, tables, affine=None):
    """The δ kernel: gather every activation's historic reads, extend
    them through their edges and ⊕ (= ``min`` on codes) per activation.

    ``reads`` is a tuple of integer index arrays, one per leading axis
    of ``ring``, so ``ring[reads]`` is a fresh ``(edges, width)`` copy —
    row ``e`` is the code row read along edge ``edge_flat[e]`` — and
    each activation's edges are one consecutive run starting at
    ``starts`` (:meth:`TopologySnapshot.edges`).  The extension is a
    table gather, or with ``affine=(w, cap)`` (see
    :attr:`TopologySnapshot.affine`) the exact clipped shift
    ``min(x + w, cap)``, computed in place in that copy.

    The fold runs in tiles of whole activations of at most
    :data:`FOLD_TILE` extension elements (a larger activation is a tile
    of its own): a stacked grid step can gather hundreds of thousands
    of in-edges, far more than any cache holds.  The result does not
    depend on the tiling.  Single source of truth for δ and σ — the
    engines' compiled step, their σ probe, :func:`sigma_block_round` and
    every :mod:`repro.core.parallel` / :mod:`repro.core.remote` worker
    run exactly this code.
    """
    width, total, acts = ring.shape[-1], edge_flat.size, starts.size
    rows = ring.reshape(-1, width)          # a view: rings are contiguous
    flat = np.ravel_multi_index(reads, ring.shape[:-1])
    out = np.empty((acts, width),
                   dtype=ring.dtype if affine is not None else tables.dtype)
    per_tile = max(1, FOLD_TILE // width)   # edges per tile
    a0 = 0
    while a0 < acts:
        # the activations a0 .. a1 - 1: as many as fit in one tile
        e0 = int(starts[a0])
        a1 = acts if total - e0 <= per_tile else max(a0 + 1, int(
            np.searchsorted(starts, e0 + per_tile, side="right")) - 1)
        e1 = int(starts[a1]) if a1 < acts else total
        edges = edge_flat[e0:e1]
        ext = rows.take(flat[e0:e1], axis=0)
        if affine is not None:
            w, cap = affine
            np.add(ext, w[edges], out=ext)
            np.minimum(ext, cap[edges], out=ext)
        else:
            ext = tables[edges[:, None], ext]
        np.minimum.reduceat(ext, starts[a0:a1] - e0, axis=0,
                            out=out[a0:a1])
        a0 = a1
    return out


def supports_vectorized(algebra: RoutingAlgebra) -> bool:
    """True when the vectorized engine can run this algebra.

    Requires a finite carrier, the FiniteEncoding protocol, and a
    successfully built encoding (injective preference keys, 0̄ first, ∞̄
    last).  Used by the engine selectors to decide between dispatch and
    fallback.
    """
    if not getattr(algebra, "is_finite", False):
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

    The engine keeps one :class:`TopologySnapshot` of the adjacency
    matrix (``_topo``) and patches it whenever ``adjacency.version``
    moves (:meth:`refresh`).  States cross the boundary via
    :meth:`encode_state` / :meth:`decode_state`.

    δ has one loop, :meth:`delta_grid` (a single run is the grid of
    one trial), and every codes-based rung that runs δ in process
    (vectorized, parallel, batched) steps it with this class's hooks.
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
        """Bring the topology snapshot up to ``adjacency.version``.

        The arcs logged since the snapshot's version
        (:meth:`~repro.core.state.AdjacencyMatrix.arcs_since`) are
        patched into a new snapshot (:meth:`TopologySnapshot.patched`):
        an edge table is built only for a changed arc that is present
        now.  At construction, and when the log no longer reaches back
        to the snapshot's version, every arc is patched into an empty
        snapshot instead.
        """
        adjacency = self.network.adjacency
        if self._version == adjacency.version:
            return
        n = self._n = self.network.n
        arcs = (None if self._version is None
                else adjacency.arcs_since(self._version))
        if arcs is None:
            topo = TopologySnapshot(
                np.empty(0, dtype=np.intp),
                np.empty((0, self.encoding.size), dtype=_DTYPE),
                np.zeros(n, dtype=np.intp))
            arcs = [i * n + k for (i, k) in adjacency.present_edges()]
        else:
            topo = self._topo
        touched = np.unique(np.asarray(arcs, dtype=np.intp))
        keys, tables = [], []
        built = {}                       # id(fn) -> table, this patch only
        for key in touched.tolist():
            i, k = divmod(key, n)
            if adjacency.has_edge(i, k):
                fn = adjacency(i, k)
                table = built.get(id(fn))
                if table is None:
                    table = built[id(fn)] = self.encoding.edge_table(fn)
                keys.append(key)
                tables.append(table)
        self._topo = topo.patched(
            touched, np.asarray(keys, dtype=np.intp),
            np.asarray(tables, dtype=_DTYPE).reshape(
                len(keys), self.encoding.size))
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

    def _advance(self, C: "np.ndarray", dirty: Optional["np.ndarray"]):
        """``(C, dirty columns) → (σ(C), changed columns)``: one σ round,
        the only step a codes rung supplies to :func:`iterate_sigma_vectorized`.

        ``dirty=None`` means "unknown — full round" (the first round of
        a run).  Otherwise ``C`` is the array the previous call returned
        and ``dirty`` its changed columns, so only those are recomputed
        (:func:`sigma_block_round` over the whole matrix).  Untouched
        columns are carried over by copy; an empty result is exactly
        σ-stability.  ``C`` itself is never written.
        """
        cols = np.arange(self._n) if dirty is None else dirty
        nxt = C.copy()
        changed = sigma_block_round(self._topo, nxt, cols, 0,
                                    self.trivial_code, self.invalid_code)
        return (nxt if changed.size else C), changed

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

    def _slot_segment(self, comp, t: int):
        """Flat read-time array over ``comp``'s active, degree > 0
        importers at ``t``, aligned to the snapshot's edge layout: one
        constant fill for a uniform-β step
        (:meth:`~repro.core.schedule.Schedule.beta_uniform`), else one
        call of the bulk hook
        (:meth:`~repro.core.schedule.CompiledSchedule.beta_times_for`)
        over the step's in-edges.

        Cached per (schedule, step): trials replicate schedules across
        starting states, and the pair list of a step is exactly the
        per-trial concatenation of these segments, so the β work of a
        step is paid once per *distinct* schedule, not once per trial.
        The cache lives for one stack (:meth:`_delta_stack` resets it)."""
        cache = self._seg_cache
        if cache.get("t") != t:
            cache.clear()
            cache["t"] = t
        seg = cache.get(id(comp))
        if seg is None:
            topo = self._topo
            nodes = np.nonzero(comp.alpha_mask(t))[0]
            nodes = nodes[topo.deg[nodes] > 0]
            uniform = comp.beta_uniform(t)
            if uniform is not None:
                seg = np.full(int(topo.deg[nodes].sum()), uniform,
                              dtype=np.int64)
            else:
                edge_flat, _starts = topo.edges(nodes)
                seg = comp.beta_times_for(t, nodes, topo.src[edge_flat],
                                          topo.deg[nodes])
            cache[id(comp)] = seg
        return seg

    def _step_reads(self, scheds, windows, live, t: int):
        """``(slot, rep, stale)`` of step ``t`` over the ``live`` trials,
        cached for the step like the segments: every read time (the
        trials' cached segments in turn, so b-major / i-ascending like
        the step's activations), the trial of each read, and the
        ``(trial, read time)`` of the first read outside its trial's
        ring window — ``s < 0`` violates S2, ``s >= t`` reads the
        future, ``s < t - window`` is evicted (as in
        :class:`~repro.core.incremental.BoundedHistory`) — or ``None``."""
        key = live.tobytes()
        reads = self._seg_cache.get(key)
        if reads is None or self._seg_cache["t"] != t:
            segs = [self._slot_segment(scheds[b], t) for b in live.tolist()]
            slot = np.concatenate(segs)
            rep = np.repeat(live, [seg.size for seg in segs])
            bad = (slot < 0) | (slot >= t) | (t - slot > windows[rep])
            k = int(np.argmax(bad)) if bad.any() else None
            reads = self._seg_cache[key] = (
                slot, rep, None if k is None else (int(rep[k]), int(slot[k])))
        return reads

    # -- the three δ hooks of a rung (here: in process) ------------------

    def _delta_begin(self, scheds, starts, windows):
        """How a δ run starts: every trial's start codes at slot 0 of
        one ``(W, B, n, n)`` history ring, ``W`` one past the widest
        read window.  Returns ``(run, t, unchanged)``: the run state the
        other hooks take, the first step, and the unchanged-step count
        the run starts from."""
        B, n = len(starts), self._n
        ring = np.empty((int(windows.max()) + 1, B, n, n),
                        dtype=self._topo.dtype)
        ring[0] = np.stack(starts)
        # read-diff skip state (see _delta_window): row k of trial b
        # last changed at step last_change[b, k] (the start counts as a
        # change at 0); prev_read_min[b, i] = earliest read time of i's
        # previous activation (-1 = never activated, never skippable)
        return (ring, scheds, windows, np.zeros((B, n), dtype=np.int64),
                np.full((B, n), -1, dtype=np.int64)), 1, 0

    def _delta_window(self, run, t: int, count: int, live, unchanged,
                      sigma_ok, const_ok):
        """One window of at most ``count`` steps from ``t``: a generator
        of per-step ``(B,)`` changed flags.  In process a window is one
        step for every live trial over the stacked ring.

        Slot ``t % W`` is written from slot ``(t - 1) % W``; trials
        whose state has been constant for a full ring skip that copy
        (every slot already holds their state), and active rows are
        overwritten in place.  The whole step is one fused gather/fold:
        every (trial, active node, in-edge) triple becomes one row of a
        flat extension matrix, reduced per activation with
        ``minimum.reduceat``.  Read times come from the compiled
        schedules, one array per (schedule, step) (:meth:`_slot_segment`).

        ``last_change``/``prev_read_min`` (the run state) are the batch
        analogue of the incremental engine's
        :class:`~repro.core.incremental.DeltaRowCache`:
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
        ring, scheds, windows, last_change, prev_read_min = run
        n = self._n
        W, B = ring.shape[:2]
        prev, nxt = ring[(t - 1) % W], ring[t % W]
        copy = live[unchanged[live] < W]
        if copy.size:
            nxt[copy] = prev[copy]
        changed = np.zeros(B, dtype=bool)
        act = np.zeros((B, n), dtype=bool)
        for b in live:
            act[b] = scheds[b].alpha_mask(t)
        pairs_b, pairs_i = np.nonzero(act)
        topo = self._topo
        d = topo.deg[pairs_i]
        has_edges = d > 0
        eb, ei, ed = pairs_b[has_edges], pairs_i[has_edges], d[has_edges]
        zb, zi = pairs_b[~has_edges], pairs_i[~has_edges]

        cert = None
        if eb.size:
            edge_flat, starts = topo.edges(ei)
            slot, rep_b, _stale = self._step_reads(scheds, windows, live, t)
            src_flat = topo.src[edge_flat]
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
                starts = np.cumsum(ed) - ed
        if eb.size:
            folded = delta_fold(ring, (slot % W, rep_b, src_flat), edge_flat,
                                starts, topo.tables, topo.affine)
            folded[np.arange(ei.size), ei] = self.trivial_code
            hit = (folded != prev[eb, ei, :]).any(axis=1)
            nxt[eb, ei, :] = folded
            changed[eb[hit]] = True
            last_change[eb[hit], ei[hit]] = t
        if zb.size:
            rows = np.full((zb.size, n), self.invalid_code,
                           dtype=ring.dtype)
            rows[np.arange(zb.size), zi] = self.trivial_code
            hit = (rows != prev[zb, zi, :]).any(axis=1)
            nxt[zb, zi, :] = rows
            changed[zb[hit]] = True
            last_change[zb[hit], zi[hit]] = t
            const_ok[zb, zi] = True
        # any change invalidates the trial's certificates (a source may
        # have moved under a certified row) — reset BEFORE recording this
        # step's, which already account for every change up to and
        # including t
        sigma_ok[changed] = False
        if cert is not None:
            ceb, cei, crep_b, csrc, cstarts, cread_min = cert
            lc_post = np.maximum.reduceat(last_change[crep_b, csrc],
                                          cstarts)
            ok = lc_post <= cread_min
            sigma_ok[ceb[ok], cei[ok]] = True
        yield changed

    def _delta_state(self, run, b: int, t: int) -> "np.ndarray":
        """Trial ``b``'s code matrix at step ``t`` (its ring slot)."""
        ring = run[0]
        return ring[t % ring.shape[0], b]

    def _sigma_rows(self, C: "np.ndarray", rows: "np.ndarray"
                    ) -> "np.ndarray":
        """σ(C) restricted to ``rows`` of a single ``(n, n)`` state —
        exactly the values :func:`sigma_block_round` would put there:
        :meth:`delta_grid`'s probe of a candidate, over the rows the
        σ-residual certificates (see :meth:`_delta_window`) miss."""
        topo = self._topo
        out = np.full((rows.size, self._n), self.invalid_code, dtype=_DTYPE)
        has = topo.deg[rows] > 0
        if has.any():
            edge_flat, starts = topo.edges(rows[has])
            out[has] = delta_fold(C, (topo.src[edge_flat],), edge_flat,
                                  starts, topo.tables, topo.affine)
        out[np.arange(rows.size), rows] = self.trivial_code
        return out

    def delta_grid(self, trials, max_steps: int = 2_000,
                   stability_window: Optional[int] = None
                   ) -> List[AsyncResult]:
        """Run δ for every ``(schedule, start)`` trial as one workload:
        the one δ loop on codes.

        Returns one :class:`~repro.core.asynchronous.AsyncResult` per
        trial, in order, each observationally identical to the strict
        literal recursion — converged flag, convergence step and fixed
        point (the differential oracle in
        ``tests/core/test_engine_equivalence.py`` enforces it).  A single
        δ run is the grid of one trial; ``max_steps=0`` returns the
        starts and compiles nothing.

        The grid compiles each distinct schedule once, sizes every
        trial's read window — as
        :class:`~repro.core.incremental.BoundedHistory`, the declared
        ``max_read_back() + 2``, or else the bound the compiled reads
        attain — and its stability window, and runs the trials in
        stacks of :meth:`_stack_width` (:meth:`_delta_stack`).
        """
        self.refresh()
        starts = [self.encode_state(start) for (_sched, start) in trials]
        if not (trials and max_steps):
            return [AsyncResult(False, 0, self.decode_state(C), None, None,
                                history_retained=1) for C in starts]
        scheds: List[CompiledSchedule] = []
        windows = np.empty(len(trials), dtype=np.int64)
        sws = np.empty(len(trials), dtype=np.int64)
        compiled = {}       # id(schedule) -> compiled form, shared by trials
        for b, (sched, _start) in enumerate(trials):
            comp = compiled.get(id(sched))
            if comp is None:
                comp = compiled[id(sched)] = CompiledSchedule.ensure(
                    sched, max_steps)
            scheds.append(comp)
            declared = comp.source.max_read_back()
            windows[b] = (declared + 2 if declared is not None
                          else comp.derived_max_read_back())
            sws[b] = (stability_window if stability_window is not None
                      else (declared or 1) + 2)
        width = self._stack_width(windows)
        return [res for lo in range(0, len(trials), width)
                for res in self._delta_stack(
                    lo, scheds[lo:lo + width], starts[lo:lo + width],
                    windows[lo:lo + width], sws[lo:lo + width], max_steps)]

    def _stack_width(self, windows) -> int:
        """Trials per stack: as many as keep the ``(W, B, n, n)`` ring
        within :data:`RING_BUDGET` bytes, and at least one."""
        state = self._n * self._n * np.dtype(self._topo.dtype).itemsize
        return max(1, RING_BUDGET // ((int(windows.max()) + 1) * state))

    def _delta_stack(self, lo: int, scheds, starts, windows, sws,
                     max_steps: int) -> List[AsyncResult]:
        """Run one stack of trials, the grid's from ``lo`` on: raise
        :class:`LookupError` when a trial reaches a read outside its
        read window, and stop a trial once it has been constant for its
        stability window and is σ-stable (the probe skips rows the step
        certified), or after ``max_steps``.  A rung supplies three
        hooks: how a run starts (:meth:`_delta_begin`), one window of
        steps yielding per-step changed flags (:meth:`_delta_window`)
        and a trial's code matrix at step ``t`` (:meth:`_delta_state`)
        — here trials stack along the batch axis of one ring and a
        window is one fused step.
        """
        B, n = len(scheds), self._n
        # until a trial takes a step it ends where it started
        final = list(starts)
        converged = np.zeros(B, dtype=bool)
        steps_res = np.full(B, max_steps, dtype=np.int64)
        conv_at: List[Optional[int]] = [None] * B
        self._seg_cache: dict = {}       # per-(schedule, step) β segments
        run, t, start_unchanged = self._delta_begin(scheds, final, windows)
        unchanged = np.full(B, start_unchanged, dtype=np.int64)
        done = np.zeros(B, dtype=bool)
        # σ-residual certificates (see _delta_window): rows already
        # provably equal to their σ-row
        sigma_ok = np.zeros((B, n), dtype=bool)
        const_ok = np.zeros((B, n), dtype=bool)
        while t <= max_steps:
            live = np.nonzero(~done)[0]
            if live.size == 0:
                break
            stale = self._step_reads(scheds, windows, live, t)[2]
            if stale is not None:
                b, s = stale
                raise LookupError(
                    f"δ history for time {s} is outside trial {lo + b}'s "
                    f"ring window (window={int(windows[b])}, t={t}); "
                    "the schedule reads further back than its "
                    "declared max_read_back — run "
                    "RoutingSession.delta(..., strict=True) to keep "
                    "the full history")
            for changed in self._delta_window(
                    run, t, max_steps - t + 1, live, unchanged,
                    sigma_ok, const_ok):
                unchanged[live] = np.where(changed[live], 0,
                                           unchanged[live] + 1)
                for b in live[unchanged[live] >= sws[live]].tolist():
                    state = self._delta_state(run, b, t)
                    rest = np.nonzero(~(sigma_ok[b] | const_ok[b]))[0]
                    if rest.size:
                        if not (self._sigma_rows(state, rest)
                                == state[rest]).all():
                            continue
                        sigma_ok[b, rest] = True
                    done[b] = converged[b] = True
                    steps_res[b] = t
                    conv_at[b] = t - int(unchanged[b])
                    final[b] = state.copy()
                t += 1
                if done[live].all():
                    break
        for b in np.nonzero(~done)[0].tolist():
            final[b] = self._delta_state(run, b, max_steps).copy()
        return [AsyncResult(bool(converged[b]), int(steps_res[b]),
                            self.decode_state(final[b]), conv_at[b], None,
                            history_retained=min(int(steps_res[b]) + 1,
                                                 int(windows[b])))
                for b in range(B)]


# ----------------------------------------------------------------------
# Batched multi-trial engine
# ----------------------------------------------------------------------


class BatchedVectorizedEngine(VectorizedEngine):
    """The rung auto negotiation starts grids at: the vectorized rung
    under another name (every in-process rung stacks a grid)."""

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
