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
runs on one kernel, the *compiled-schedule step*: every activation of a
step becomes one flat gather against a ring of historic code matrices,
extended through the edge tables and folded with
``np.minimum.reduceat`` (:func:`delta_fold`).  What a step activates
and reads depends only on the schedules and the snapshot, so one
planner (:class:`_DeltaPlan`) computes it for a window of steps at a
time — each (schedule, step) once, through the schedules' window hooks
(:meth:`~repro.core.schedule.Schedule.alpha_masks`,
:meth:`~repro.core.schedule.CompiledSchedule.beta_times_for`) — and
both the in-process step loop and the remote coordinator slice their
steps from it; a step then pays only for what depends on the state.  A
single run is the grid of one trial, and in process a grid's trials
stack along the batch axis of one ring, folded in cache-sized tiles.

Primitives and transports
-------------------------

Every codes-rung primitive is written once, here:

* :class:`TopologySnapshot` — one adjacency version in the flat edge
  layout, with its one export/restore pair for worker processes and
  its activation edge layout (:meth:`TopologySnapshot.layout`);
* :func:`sigma_block_round` — the column-block σ round (kernel
  :func:`delta_fold`, Lemma 1 diagonal, changed columns);
* :func:`delta_fold` — the one kernel, of δ's steps and σ's rounds;
* :class:`_DeltaPlan` — the one δ planner, of the in-process windows
  and the remote coordinator's.

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
replaced whenever ``adjacency.version`` moves, or the network holds
another adjacency object (checked by :meth:`VectorizedEngine.refresh`
at the top of every public entry point), so mid-run ``set_edge`` /
``remove_edge`` can never leave a stale table behind — the vectorized
mirror of the :class:`~repro.core.state.NetworkTopology` contract.  The
new snapshot is the old one patched for the arcs in the adjacency's
arc log since its version, so a one-arc write costs at most one edge
table and one O(E) merge; only construction, another adjacency object,
or a log that no longer reaches back that far, rebuilds every table.

The snapshot also carries the premise of Theorem 7 —
:attr:`TopologySnapshot.breach`, the first arc that is not strictly
increasing — which a patch re-checks only for the arcs it changed;
:meth:`repro.session.RoutingSession.unique_fixed_point` reads it.
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


def _index_dtype(bound: int):
    """int32 when every index below ``bound`` fits in it, else intp."""
    return np.int32 if bound < 1 << 31 else np.intp


def _ranges(begin, size, dtype):
    """``(concatenate([arange(b, b + s) for b, s in zip(begin, size)]),
    where each range starts in it)`` without a Python loop, in
    ``dtype``."""
    ends = np.cumsum(size, dtype=dtype)
    starts = ends - size.astype(dtype, copy=False)
    idx = np.repeat((begin - starts).astype(dtype, copy=False), size)
    idx += np.arange(idx.size, dtype=dtype)
    return idx, starts


def increase_breach(tables):
    """``(row, code)`` of the first table that breaks strict increase
    (Definition 3 on codes), or ``None`` when none does.

    Codes number routes in preference order with ∞̄ last, so a table
    ``T`` strictly increases iff ``T[c] > c`` for every code ``c`` below
    ∞̄; it must also keep ``T[∞̄] = ∞̄``, reported as the code ∞̄.
    """
    invalid = tables.shape[1] - 1
    low = tables[:, :invalid] <= np.arange(invalid, dtype=tables.dtype)
    bad = low.any(axis=1) | (tables[:, invalid] != invalid)
    if not bad.any():
        return None
    e = int(bad.argmax())
    codes = np.flatnonzero(low[e])
    return e, int(codes[0]) if codes.size else invalid


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
        table gather (a flat ``take``, the most expensive op in the δ
        step) becomes two SIMD-friendly arithmetic ops, in δ's steps and
        σ's rounds alike.  Computed on first use, once per snapshot —
        or, for a snapshot :meth:`patched` from one with an exact view,
        carried through the patch after checking only the new arcs.
        """
        return affine_view(self.tables, self.dtype)

    @cached_property
    def breach(self):
        """The first installed arc whose table breaks strict increase,
        as ``(i, k, code, image)`` — ``T_ik[code] = image`` — or
        ``None`` when every table strictly increases (see
        :func:`increase_breach`): the premise of Theorem 7 on this
        snapshot, checked exactly, never assumed.

        Computed on first use, once per snapshot — or, for a snapshot
        :meth:`patched` from one without a breach, carried through the
        patch after checking only the new arcs (a snapshot with a
        breach is checked in full: removing the arc can clear it).
        """
        found = increase_breach(self.tables)
        if found is None:
            return None
        e, code = found
        i = int(np.searchsorted(self.off + self.deg, e, side="right"))
        return i, int(self.src[e]), code, int(self.tables[e, code])

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
        if "breach" in self.__dict__ and self.breach is None:
            # the kept arcs strictly increase: the first breach, if
            # any, is the new arcs' first (``keys`` ascend)
            found = increase_breach(tables)
            if found is None:
                out.breach = None
            else:
                e, code = found
                i, k = divmod(int(keys[e]), n)
                out.breach = (i, k, code, int(tables[e, code]))
        return out

    def layout(self, nodes):
        """The activation edge layout of active ``nodes`` (any nodes, in
        any order — a window's steps one after another):
        ``(has, edge_flat, starts)`` — which of them have in-edges,
        every in-edge of each of those, node by node, and where each
        one's run begins, in int32 where the snapshot's edges fit.  The
        one layout of every δ path: the planner, the σ probe and the
        remote worker's window."""
        d = self.deg[nodes]
        has = d > 0
        if not has.all():
            nodes, d = nodes[has], d[has]
        edge_flat, starts = _ranges(self.off[nodes], d,
                                    _index_dtype(self.src.size))
        return has, edge_flat, starts

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
            sub, topo.src, np.arange(topo.src.size), topo.starts,
            topo.tables, topo.affine)
    new[lo + cols, np.arange(cols.size)] = trivial_code  # Lemma 1
    block[:, cols] = new
    return cols[(new != sub).any(axis=0)]


def delta_fold(ring, reads, edge_flat, starts, tables, affine=None):
    """The δ kernel: gather every activation's historic reads, extend
    them through their edges and ⊕ (= ``min`` on codes) per activation.

    ``reads`` holds one flat row index per edge, over all leading axes
    of ``ring`` (``ring.reshape(-1, width)[reads]``, a fresh ``(edges,
    width)`` copy: row ``e`` is the code row read along edge
    ``edge_flat[e]``), and each activation's edges are one consecutive
    run starting at ``starts``
    (:meth:`TopologySnapshot.layout`).  The extension is one flat
    ``take`` from the edge tables (index ``edge · size + code``, in
    int32 when the tables fit), or with ``affine=(w, cap)`` (see
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
    out = np.empty((acts, width),
                   dtype=ring.dtype if affine is not None else tables.dtype)
    size, cells = tables.shape[-1], tables.reshape(-1)
    cell_dtype = _index_dtype(tables.size)
    per_tile = max(1, FOLD_TILE // width)   # edges per tile
    a0 = 0
    while a0 < acts:
        # the activations a0 .. a1 - 1: as many as fit in one tile
        e0 = int(starts[a0])
        a1 = acts if total - e0 <= per_tile else max(a0 + 1, int(
            np.searchsorted(starts, e0 + per_tile, side="right")) - 1)
        e1 = int(starts[a1]) if a1 < acts else total
        edges = edge_flat[e0:e1]
        ext = rows.take(reads[e0:e1], axis=0)
        if affine is not None:
            w, cap = affine
            np.add(ext, w[edges], out=ext)
            np.minimum(ext, cap[edges], out=ext)
        else:
            base = edges.astype(cell_dtype, copy=False) * size
            ext = cells.take(ext + base[:, None])
        np.minimum.reduceat(ext, starts[a0:a1] - e0, axis=0,
                            out=out[a0:a1])
        a0 = a1
    return out


# ----------------------------------------------------------------------
# The δ planner: what a window of steps reads, planned once
# ----------------------------------------------------------------------


class _StepPlan:
    """One schedule's δ steps ``t … t + steps − 1`` on one snapshot,
    planned as arrays with one call of each window hook
    (:meth:`~repro.core.schedule.Schedule.alpha_masks`,
    :meth:`~repro.core.schedule.CompiledSchedule.beta_times_for`).

    Step after step: the active nodes (``nodes``, ascending within a
    step; step ``t + k``'s start at ``node_at[k]``), split into those
    with in-edges (``act`` with their in-degrees ``deg`` and earliest
    read times ``read_min``; ``act_at``) and those without (``zero``;
    ``zero_at``), and the in-edges of the first kind in the snapshot's
    layout (``edge``, their exporters ``src`` and read times ``times``;
    ``edge_at``).  ``count`` steps are asked for.  With a ``budget`` the
    plan stops before the step whose in-edges would pass it (one step
    at least).  It always stops before the first step with a read
    outside the schedule's ring ``window`` — ``s < 0`` violates S2,
    ``s >= t`` reads the future, ``s < t − window`` is evicted (as in
    :class:`~repro.core.incremental.BoundedHistory`) — and records that
    step and its first such read time as ``stale``.

    Given the in-process ``ring`` — ``(slots, rows, dtype)``: a history
    ring of ``slots`` slots of ``rows`` rows, and the dtype its row
    indices fit in — the plan keeps, instead of the read times, each
    read's ring row less its trial's offset (``flat``: ``(s mod
    slots)·rows + k``), and its node indices in that dtype.
    """

    def __init__(self, topo: TopologySnapshot, comp, window: int, t: int,
                 count: int, budget: Optional[int] = None, ring=None):
        masks = comp.alpha_masks(t, count)
        if budget is not None:
            need = np.cumsum(masks.dot(topo.deg))
            masks = masks[:max(1, int(np.searchsorted(need, budget,
                                                      side="right")))]
        k, nodes = np.nonzero(masks)
        has, edge, starts = topo.layout(nodes)
        act_k, act = (k, nodes) if has.all() else (k[has], nodes[has])
        deg = topo.deg[act]
        src = topo.src[edge]
        times = (comp.beta_times_for(t + act_k, act, src, deg) if act.size
                 else np.empty(0, dtype=np.int64))
        back = np.repeat(t + act_k, deg) - times          # t − β
        self.t, self.steps, self.stale = t, masks.shape[0], None
        if times.size and (back.min() < 1 or back.max() > window
                           or times.min() < 0):
            e = np.flatnonzero((back < 1) | (back > window) | (times < 0))[0]
            s = int(times[e] + back[e])
            self.steps, self.stale = s - t, (s, int(times[e]))
        grid = np.arange(self.steps + 1)
        self.node_at = np.searchsorted(k, grid)
        self.act_at = np.searchsorted(act_k, grid)
        self.zero_at = self.node_at - self.act_at
        self.edge_at = np.append(starts, edge.size)[self.act_at]
        a, e = self.act_at[-1], self.edge_at[-1]
        self.nodes = nodes[:self.node_at[-1]]
        self.act, self.deg = act[:a], deg[:a]
        self.zero = nodes[~has][:self.zero_at[-1]]
        times = times[:e]
        self.edge, self.src = edge[:e], src[:e]
        self.read_min = (np.minimum.reduceat(times, starts[:a]) if a
                         else np.empty(0, dtype=np.int64))
        if ring is None:
            self.times = times
        else:
            slots, rows, dtype = ring
            self.act, self.zero, self.src = (
                x.astype(dtype) for x in (self.act, self.zero, self.src))
            # (s mod slots)·rows by lookup: a modulo per read costs more
            lo = max(0, t - window)
            ring_rows = (np.arange(lo, t + self.steps, dtype=dtype)
                         % slots * rows).astype(dtype)
            self.flat = ring_rows.take(times - lo) + self.src


def _stacked(offsets, q, base, steps: int):
    """Where each (step, live trial) pair's rows lie, step-major: the
    indices into the concatenation of every group's window slice, each
    row's ``base`` (that of its trial) and where each step's rows
    start.  ``offsets[g]`` are group ``g``'s per-step offsets in its
    slice, ``q`` each live trial's group."""
    own = offsets[q]                               # (trials, steps + 1)
    sizes = own[:, 1:] - own[:, :-1]
    begin = own[:, :-1] + (np.cumsum(offsets[:, -1])
                           - offsets[:, -1])[q, None]
    size = sizes.T.ravel()
    idx, _starts = _ranges(begin.T.ravel(), size, np.intp)
    step_at = np.zeros(steps + 1, dtype=np.intp)
    np.cumsum(sizes.sum(axis=0), out=step_at[1:])
    rows = np.repeat(np.broadcast_to(base, (steps, base.size)).ravel(), size)
    return idx, rows, step_at


class _Window:
    """The stacked layout of steps ``t … t + steps − 1`` over a stack's
    ``live`` trials, sliced from the per-schedule plans with array ops.

    Step-major, then trial by trial: per activation with in-edges its
    ``pair`` (row ``b·n + i`` of a ``(B·n, n)`` ring slot), node,
    degree, earliest read time and where its in-edges start in its
    step; per in-edge its table ``edge``, ``lc`` (the ``b·n + k`` row
    of its source) and ``flat`` (that row in the read's ring slot,
    ``(s mod W)·B·n + b·n + k``); per activation without in-edges its
    ``zero_pair``.  ``act_at``/``edge_at``/``zero_at`` are each step's
    offsets, as lists.
    """

    def __init__(self, live, t: int, steps: int, plans, q, n: int, dtype):
        self.live, self.t, self.steps = live, t, steps
        base = (live * n).astype(dtype)

        def family(offsets, names):
            slices, cols = [], [[] for _ in names]
            for p in plans:
                at_p = getattr(p, offsets)[t - p.t:t - p.t + steps + 1]
                lo, hi = at_p[[0, -1]].tolist()
                slices.append(at_p - lo)
                for col, name in zip(cols, names):
                    col.append(getattr(p, name)[lo:hi])
            idx, rows, step_at = _stacked(np.stack(slices), q, base, steps)
            return ([np.concatenate(col).take(idx) for col in cols], rows,
                    step_at)

        (self.node, self.deg, self.read_min), rows, act_at = family(
            "act_at", ("act", "deg", "read_min"))
        (self.edge, src, flat), edge_rows, edge_at = family(
            "edge_at", ("edge", "src", "flat"))
        if any(p.zero_at[-1] for p in plans):
            (zero,), zero_rows, zero_at = family("zero_at", ("zero",))
            self.zero_pair = zero_rows + zero
        else:       # every active node has in-edges
            self.zero_pair, zero_at = rows[:0], np.zeros(steps + 1, np.intp)
        self.pair = rows + self.node
        self.lc, self.flat = src + edge_rows, flat + edge_rows
        self.starts = (np.cumsum(self.deg) - self.deg - np.repeat(
            edge_at[:-1], np.diff(act_at))).astype(self.edge.dtype)
        self.act_at, self.edge_at, self.zero_at = \
            act_at.tolist(), edge_at.tolist(), zero_at.tolist()


class _DeltaPlan:
    """The δ planner of one stack of trials: the codes rungs' one
    source of what a step activates and reads.

    Trials that share a compiled schedule form a group.  A group's
    steps are planned a window at a time (:class:`_StepPlan`), each
    plan asking for twice the steps the group's last one kept (8 at
    first), and kept until the stack has stepped past them, so each
    (schedule, step) is planned once however many trials share it.
    The in-process windows (:meth:`stack`) stack the live trials'
    plans; a trial that finishes inside one leaves it as it is, and the
    loop resumes it for the trials left.  They are bounded by a budget
    of planned in-edges, per schedule and per stack, of
    ``FOLD_TILE // 8``: about as many bytes of int32 indices as a fold
    tile holds codes.  The remote coordinator plans its windows whole
    (:meth:`wire`).  A read outside a trial's ring window raises
    :class:`LookupError` only when a live trial reaches that step.
    """

    def __init__(self, topo: TopologySnapshot, lo: int, scheds, windows):
        self.topo, self.lo, self.windows = topo, lo, windows
        index: dict = {}
        self.group = np.asarray([index.setdefault(id(comp), len(index))
                                 for comp in scheds], dtype=np.intp)
        self.comps = list({id(comp): comp for comp in scheds}.values())
        self.group_window = windows[np.unique(self.group,
                                              return_index=True)[1]]
        #: slots of the in-process history ring: one past the widest
        #: read window
        self.slots = int(windows.max()) + 1
        #: the dtype of the stacked indices: every ring row fits in it
        self.dtype = _index_dtype(self.slots * len(scheds) * topo.deg.size)
        self.budget = max(1, FOLD_TILE // 8)
        self._plans: List[Optional[_StepPlan]] = [None] * len(self.comps)
        self._window: Optional[_Window] = None

    def _stale(self, b: int, t: int, s: int) -> LookupError:
        return LookupError(
            f"δ history for time {s} is outside trial {self.lo + b}'s "
            f"ring window (window={int(self.windows[b])}, t={t}); "
            "the schedule reads further back than its "
            "declared max_read_back — run "
            "RoutingSession.delta(..., strict=True) to keep "
            "the full history")

    def _plan(self, g: int, t: int, count: int) -> _StepPlan:
        """Group ``g``'s plan holding step ``t`` (or stale at it), laid
        out for the stack's ring."""
        p = self._plans[g]
        if p is None or t > p.t + p.steps or \
                (t == p.t + p.steps and p.stale is None):
            # twice the steps the last plan kept: the budget cuts a
            # plan, and the steps past its cut are drawn for nothing
            span = 8 if p is None else 2 * max(1, p.steps)
            self._plans[g] = None           # let the old plan go first
            p = self._plans[g] = _StepPlan(
                self.topo, self.comps[g], int(self.group_window[g]), t,
                min(span, count), self.budget,
                (self.slots, self.group.size * self.topo.deg.size,
                 self.dtype))
        return p

    def stack(self, live, t: int, count: int) -> _Window:
        """The window holding step ``t``: the last one, when the stack
        left it early because a trial finished (the trials left are a
        subset of its own), or else the next one of at most ``count``
        steps from ``t`` over the ``live`` trials (ascending), which
        ends where a live group's plan ends and within the stack's
        budget.  Raises the stale read of the lowest live trial that
        reads outside its ring at ``t``."""
        win = self._window
        if win is not None and win.t < t < win.t + win.steps:
            return win      # the stack left it early: a trial finished
        groups = self.group[live]
        live_groups = np.unique(groups)
        plans = [self._plan(g, t, count) for g in live_groups.tolist()]
        q = np.searchsorted(live_groups, groups)
        stale = np.asarray([p.stale is not None and p.stale[0] == t
                            for p in plans])
        if stale.any():
            j = int(np.flatnonzero(stale[q])[0])
            raise self._stale(int(live[j]), t, plans[q[j]].stale[1])
        steps = min(min(p.t + p.steps for p in plans) - t, count)
        edges = np.stack([p.edge_at[t - p.t:t - p.t + steps + 1]
                          for p in plans])
        per_step = np.bincount(q, minlength=len(plans)).dot(
            np.diff(edges, axis=1))
        steps = max(1, int(np.searchsorted(np.cumsum(per_step), self.budget,
                                           side="right")))
        self._window = _Window(live, t, steps, plans, q, self.topo.deg.size,
                               self.dtype)
        return self._window

    def wire(self, t: int, count: int) -> _StepPlan:
        """Trial 0's next ``count`` steps from ``t``, planned whole and
        cut before a step that reads outside its ring: a remote window.
        Raises the stale read when it is at ``t`` itself."""
        p = _StepPlan(self.topo, self.comps[0], int(self.group_window[0]),
                      t, count)
        if p.steps == 0:
            raise self._stale(0, t, p.stale[1])
        return p


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

    It also keeps a *certificate*: the state its σ loop last returned
    as converged, with that state's code matrix, the adjacency object
    and ``adjacency.version`` at that moment.  A σ run that starts from
    that very object seeds warm (see :func:`iterate_sigma_vectorized`).

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
        self._adj = None                 # the adjacency the snapshot is of
        self._version: Optional[int] = None
        #: ``(state, codes, adjacency, version)`` of the last converged
        #: σ run (see :meth:`_seed`); ``codes`` is read-only
        self._fixed = None
        self.refresh()

    # ------------------------------------------------------------------
    # Topology snapshot
    # ------------------------------------------------------------------

    def refresh(self) -> None:
        """Bring the topology snapshot up to the network's adjacency
        object at its current ``version``.

        The arcs logged since the snapshot's version
        (:meth:`~repro.core.state.AdjacencyMatrix.arcs_since`) are
        patched into a new snapshot (:meth:`TopologySnapshot.patched`):
        an edge table is built only for a changed arc that is present
        now.  At construction, when the network holds another adjacency
        object than the snapshot's (its versions and log describe other
        arcs), and when the log no longer reaches back to the
        snapshot's version, every arc is patched into an empty snapshot
        instead.
        """
        adjacency = self.network.adjacency
        if adjacency is self._adj and self._version == adjacency.version:
            return
        n = self._n = self.network.n
        arcs = (adjacency.arcs_since(self._version)
                if adjacency is self._adj else None)
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
        self._adj, self._version = adjacency, adjacency.version

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

    def decode_state(self, matrix: "np.ndarray",
                     like=None) -> RoutingState:
        """``(n, n)`` int code matrix → ``RoutingState``.

        With ``like=(codes, state)`` — a state and its code matrix —
        only the rows whose codes differ from ``codes`` are decoded;
        every other row object is shared with ``state`` (equal codes are
        equal routes), as the incremental engines share rows
        (:meth:`~repro.core.state.RoutingState.adopt`).
        """
        codes = self.encoding.codes
        if like is None:
            return RoutingState.adopt(
                [[codes[c] for c in row] for row in matrix.tolist()])
        ref_codes, ref = like
        rows = list(ref.rows)
        moved = np.flatnonzero((matrix != ref_codes).any(axis=1)).tolist()
        for i, row in zip(moved, matrix[moved].tolist()):
            rows[i] = [codes[c] for c in row]
        return RoutingState.adopt(rows)

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

    def _seed(self, start: RoutingState):
        """``(codes, rows)``: a σ run's start codes and, for a warm seed,
        the rows its first round recomputes (``None`` seeds cold).

        Warm when ``start`` *is* the certified state, the network holds
        the certified adjacency object and its arc log reaches back to
        the certified version: the codes are the certified ones, and
        only the importers ``i`` of the logged arcs ``i·n + k`` can
        differ from σ(start) — by Eq. 5 every other row of σ(start) is
        computed from the same in-arcs as when ``start`` was σ-stable.
        That holds for any algebra, so a warm run reports exactly what
        a cold run from ``start`` reports.
        """
        fixed = self._fixed
        if fixed is not None:
            state, codes, adjacency, version = fixed
            if start is state and adjacency is self.network.adjacency:
                arcs = adjacency.arcs_since(version)
                if arcs is not None:
                    return codes, np.unique(
                        np.asarray(arcs, dtype=np.intp) // self._n)
        return self.encode_state(start), None

    def _seed_round(self, C: "np.ndarray", rows: "np.ndarray"):
        """The warm seed's first round: ``(σ(C), changed columns)`` with
        σ recomputed over ``rows`` only (:meth:`_sigma_rows`) and every
        other row carried over — the rest of the run is the rung's
        :meth:`_advance` over the changed columns.  ``C`` is never
        written."""
        new = self._sigma_rows(C, rows)
        diff = new != C[rows]
        if not diff.any():
            return C, rows[:0]
        nxt = C.copy()
        nxt[rows] = new
        return nxt, np.flatnonzero(diff.any(axis=0))

    def _certify(self, state: RoutingState, C: "np.ndarray") -> None:
        """Keep ``state`` — a converged run's, with its codes ``C`` — as
        the certificate a later run may seed from."""
        C.flags.writeable = False       # shared with the next run
        self._fixed = (state, C, self.network.adjacency, self._version)

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

    # -- the three δ hooks of a rung (here: in process) ------------------

    def _delta_begin(self, plan: _DeltaPlan, starts):
        """How a δ run starts: every trial's start codes at slot 0 of
        one ``(W, B, n, n)`` history ring, ``W`` the planner's ring
        slots (one past the widest read window).  Returns ``(run, t,
        unchanged)``: the run state the other hooks take, the first
        step, and the unchanged-step count the run starts from."""
        B, n = len(starts), self._n
        ring = np.empty((plan.slots, B, n, n), dtype=self._topo.dtype)
        ring[0] = np.stack(starts)
        # read-diff skip state (see _delta_window): row k of trial b
        # last changed at step last_change[b, k] (the start counts as a
        # change at 0); prev_read_min[b, i] = earliest read time of i's
        # previous activation (-1 = never activated, never skippable)
        return (ring, plan, np.zeros((B, n), dtype=np.int64),
                np.full((B, n), -1, dtype=np.int64)), 1, 0

    def _delta_window(self, run, t: int, count: int, live, unchanged,
                      sigma_ok, const_ok):
        """One window of at most ``count`` steps from ``t`` over the
        ``live`` trials: a generator of per-step ``(B,)`` changed flags.
        In process the window is the planner's
        (:meth:`_DeltaPlan.stack`): everything a step activates and
        reads is planned for all its steps before the first, so a step
        runs only what depends on the state — the skip, the fold, the
        compare, the writes and the certificates.  The caller stops
        drawing when a trial finishes; the next call resumes the same
        window for the trials left, whose rows alone it folds (the
        finished trial's ride along unfolded to the window's end).

        Slot ``t % W`` is written from slot ``(t - 1) % W``; trials
        whose state has been constant for a full ring skip that copy
        (every slot already holds their state), and active rows are
        overwritten in place.  A step is one fused gather/fold: every
        (trial, active node, in-edge) triple is one row of a flat
        extension matrix, reduced per activation with
        ``minimum.reduceat`` (:func:`delta_fold`).

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
        ring, plan, last_change, prev_read_min = run
        win = plan.stack(live, t, count)
        n, topo = self._n, self._topo
        W, B = ring.shape[:2]
        slots = ring.reshape(W, B * n, n)      # (trial, node) rows
        cells = ring.reshape(-1, n)
        last, prm = last_change.reshape(-1), prev_read_min.reshape(-1)
        certified, constant = sigma_ok.reshape(-1), const_ok.reshape(-1)
        act_at, edge_at, zero_at = win.act_at, win.edge_at, win.zero_at
        gone = None         # the window's trials that have finished
        if live.size < win.live.size:
            gone = np.ones(B, dtype=bool)
            gone[live] = False
        for k in range(t - win.t, win.steps):
            now = win.t + k
            prev, nxt = slots[(now - 1) % W], slots[now % W]
            copy = live[unchanged[live] < W]
            if copy.size:
                ring[now % W, copy] = ring[(now - 1) % W, copy]
            changed = np.zeros(B, dtype=bool)
            a0, a1, e0, e1 = act_at[k], act_at[k + 1], edge_at[k], \
                edge_at[k + 1]
            if a1 > a0:
                pair, starts = win.pair[a0:a1], win.starts[a0:a1]
                lc, read_min = win.lc[e0:e1], win.read_min[a0:a1]
                # -- read-diff skip (vectorized DeltaRowCache) ----------
                # sound because entry (i, j) is a pure fold of the
                # sources' reads: if no source row changed anywhere in
                # the span between the previous activation's reads and
                # this one's, the fold recomputes the row it already
                # produced.
                skip = np.maximum.reduceat(last.take(lc), starts) <= \
                    np.minimum(read_min, prm.take(pair))
                prm[pair] = read_min
                if gone is not None:
                    skip |= gone[pair // n]
                rows, flat, edge = pair, win.flat[e0:e1], win.edge[e0:e1]
                node, folds = win.node[a0:a1], starts
                if skip.any():
                    keep = ~skip
                    deg = win.deg[a0:a1][keep]
                    edges = np.repeat(keep, win.deg[a0:a1])
                    rows, flat, edge = pair[keep], flat[edges], edge[edges]
                    node, folds = node[keep], np.cumsum(deg) - deg
                if rows.size:
                    folded = delta_fold(cells, flat, edge, folds,
                                        topo.tables, topo.affine)
                    folded[np.arange(rows.size), node] = self.trivial_code
                    hit = rows[(folded != prev[rows]).any(axis=1)]
                    nxt[rows] = folded
                    changed[hit // n] = True
                    last[hit] = now
            pair = win.zero_pair[zero_at[k]:zero_at[k + 1]]
            if gone is not None:
                pair = pair[~gone[pair // n]]
            if pair.size:           # a node without in-edges: a constant row
                fixed = np.full((pair.size, n), self.invalid_code,
                                dtype=ring.dtype)
                fixed[np.arange(pair.size), pair % n] = self.trivial_code
                hit = pair[(fixed != prev[pair]).any(axis=1)]
                nxt[pair] = fixed
                changed[hit // n] = True
                last[hit] = now
                constant[pair] = True
            # any change invalidates the trial's certificates (a source
            # may have moved under a certified row) — reset BEFORE
            # recording this step's, which already account for every
            # change up to and including this step
            sigma_ok[changed] = False
            if a1 > a0:
                pair = win.pair[a0:a1]
                certified[pair[np.maximum.reduceat(
                    last.take(win.lc[e0:e1]), win.starts[a0:a1])
                    <= win.read_min[a0:a1]]] = True
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
        has, edge_flat, starts = topo.layout(rows)
        if edge_flat.size:
            out[has] = delta_fold(C, topo.src[edge_flat], edge_flat,
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
        :class:`LookupError` when a live trial reaches a read outside
        its read window, and stop a trial once it has been constant for
        its stability window and is σ-stable (the probe skips rows the
        step certified), or after ``max_steps``.  A rung supplies three
        hooks: how a run starts (:meth:`_delta_begin`, given the stack's
        planner :class:`_DeltaPlan`), one window of steps yielding
        per-step changed flags (:meth:`_delta_window`) and a trial's
        code matrix at step ``t`` (:meth:`_delta_state`) — here trials
        stack along the batch axis of one ring and a window is the
        planner's.  A window is left as soon as a trial finishes, so a
        finished trial is never stepped or probed again.

        A trial is probed when it first completes its stability window
        after a change, and not again until its state changes: while
        its state X stands, σ(X) ≠ X stands, and no certificate can
        cover the row that failed.
        """
        B, n = len(scheds), self._n
        # until a trial takes a step it ends where it started
        final = list(starts)
        converged = np.zeros(B, dtype=bool)
        steps_res = np.full(B, max_steps, dtype=np.int64)
        conv_at: List[Optional[int]] = [None] * B
        plan = _DeltaPlan(self._topo, lo, scheds, windows)
        run, t, start_unchanged = self._delta_begin(plan, final)
        unchanged = np.full(B, start_unchanged, dtype=np.int64)
        # whose current state already failed a probe: on a resumed run,
        # the state at t - 1 was probed iff it had been constant for its
        # stability window (it failed, or the trial would be done)
        failed = (unchanged >= sws) if t > 1 else np.zeros(B, dtype=bool)
        done = np.zeros(B, dtype=bool)
        # σ-residual certificates (see _delta_window): rows already
        # provably equal to their σ-row
        sigma_ok = np.zeros((B, n), dtype=bool)
        const_ok = np.zeros((B, n), dtype=bool)
        while t <= max_steps:
            live = np.flatnonzero(~done)
            if live.size == 0:
                break
            for changed in self._delta_window(
                    run, t, max_steps - t + 1, live, unchanged,
                    sigma_ok, const_ok):
                unchanged += 1
                unchanged[changed] = 0
                failed[changed] = False
                finished = False
                for b in np.flatnonzero((unchanged >= sws)
                                        & ~(failed | done)).tolist():
                    state = self._delta_state(run, b, t)
                    rest = np.flatnonzero(~(sigma_ok[b] | const_ok[b]))
                    if rest.size:
                        if not (self._sigma_rows(state, rest)
                                == state[rest]).all():
                            failed[b] = True
                            continue
                        sigma_ok[b, rest] = True
                    done[b] = converged[b] = finished = True
                    steps_res[b] = t
                    conv_at[b] = t - int(unchanged[b])
                    final[b] = state.copy()
                t += 1
                if finished:
                    break
        for b in np.flatnonzero(~done).tolist():
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

    A converged run certifies its state on the engine.  A later run
    whose ``start`` *is* that state seeds warm
    (:meth:`VectorizedEngine._seed`): it takes the certified codes
    without encoding, its first round recomputes only the rows of the
    arcs written since (:meth:`VectorizedEngine._seed_round`), and its
    states are decoded sharing every row whose codes did not move.
    Its report is the cold run's from the same start.
    """
    eng = engine if engine is not None else VectorizedEngine(network)
    eng.refresh()
    C, rows = eng._seed(start)
    like = None if rows is None else (C, start)
    trajectory: Optional[List[RoutingState]] = \
        [start] if keep_trajectory else None
    seen = {C.tobytes(): 0} if detect_cycles else None
    churn = 0
    dirty = None
    for k in range(max_rounds):
        if rows is not None:
            (nxt, dirty), rows = eng._seed_round(C, rows), None
        else:
            nxt, dirty = eng._advance(C, dirty)
        if keep_trajectory:
            trajectory.append(eng.decode_state(nxt, like))
        if dirty.size == 0:
            state = eng.decode_state(C, like)
            eng._certify(state, C)
            return SyncResult(True, k, state, trajectory, churn)
        churn += int((nxt[:, dirty] != C[:, dirty]).sum())
        if detect_cycles:
            key = nxt.tobytes()
            if key in seen:
                return SyncResult(False, k + 1, eng.decode_state(nxt, like),
                                  trajectory, churn)
            seen[key] = k + 1
        C = nxt
    return SyncResult(False, max_rounds, eng.decode_state(C, like),
                      trajectory, churn)
