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
both the in-process windows and the remote coordinator slice their
steps from it.  In process a window then folds a *level* at a time:
consecutive steps whose every read is settled before the first of
them, which δ's reads (S2) let run as one step — the sequential part
of δ is its dependency levels, not its steps — and a level pays only
for what depends on the state.  A single run is the grid of one
trial, and in process a grid's trials stack along the batch axis of
one ring, folded in cache-sized tiles.

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
    per_tile = max(1, FOLD_TILE // width)   # edges per tile
    if total <= per_tile:
        return _fold_tile(rows, reads, edge_flat, starts, tables, affine)
    out = np.empty((acts, width),
                   dtype=ring.dtype if affine is not None else tables.dtype)
    a0 = 0
    while a0 < acts:
        # the activations a0 .. a1 - 1: as many as fit in one tile
        e0 = int(starts[a0])
        a1 = acts if total - e0 <= per_tile else max(a0 + 1, int(
            np.searchsorted(starts, e0 + per_tile, side="right")) - 1)
        e1 = int(starts[a1]) if a1 < acts else total
        _fold_tile(rows, reads[e0:e1], edge_flat[e0:e1],
                   starts[a0:a1] - e0, tables, affine, out[a0:a1])
        a0 = a1
    return out


def _fold_tile(rows, reads, edges, starts, tables, affine, out=None):
    """One tile of :func:`delta_fold`: gather, extend, ⊕ per
    activation (into ``out`` when given)."""
    ext = rows.take(reads, axis=0)
    if affine is not None:
        w, cap = affine
        np.add(ext, w[edges], out=ext)
        np.minimum(ext, cap[edges], out=ext)
    else:
        base = edges.astype(_index_dtype(tables.size), copy=False) \
            * tables.shape[-1]
        ext = tables.reshape(-1).take(ext + base[:, None])
    return np.minimum.reduceat(ext, starts, axis=0, out=out)


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
    indices fit in — the plan also keeps each read's ring row less its
    trial's offset (``flat``: ``(s mod slots)·rows + k``), its node
    indices in that dtype, and its dependencies: per step, ``dep``, the
    latest step of the plan at which a node the step reads was
    activated at or before that read's time (``t − 1`` when there is
    none; one ``maximum.accumulate`` over the masks and one gather over
    the reads).  Every read of a step ``u`` whose ``dep`` is below
    ``t0`` is *settled* from ``t0`` on: no activation in ``t0 … s``
    wrote the row it reads at ``s``, so ``u`` may fold with the steps
    from ``t0`` (a *level*, :meth:`VectorizedEngine._delta_window`).
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
        self.times = times = times[:e]
        self.edge, self.src = edge[:e], src[:e]
        self.read_min = (np.minimum.reduceat(times, starts[:a]) if a
                         else np.empty(0, dtype=np.int64))
        if ring is None:
            return
        slots, rows, dtype = ring
        self.act, self.zero, self.src = (
            x.astype(dtype) for x in (self.act, self.zero, self.src))
        lo = max(0, t - window)         # the earliest time a read takes
        # (s mod slots)·rows by lookup: a modulo per read costs more
        ring_rows = (np.arange(lo, t + self.steps, dtype=dtype)
                     % slots * rows).astype(dtype)
        self.flat = ring_rows.take(times - lo) + self.src
        n = masks.shape[1]
        # per time from lo and node: the latest step of the plan at or
        # before it that activated the node (−1: none)
        latest = np.full((t - lo + self.steps, n), -1, dtype=np.int32)
        mark = latest[t - lo:]
        np.multiply(masks[:self.steps], np.arange(
            1, self.steps + 1, dtype=np.int32)[:, None], out=mark)
        np.maximum.accumulate(mark, axis=0, out=mark)
        mark -= 1
        self.dep = np.full(self.steps, t - 1, dtype=np.int64)
        busy = np.flatnonzero(np.diff(self.edge_at))
        if busy.size:
            self.dep[busy] += 1 + np.maximum.reduceat(
                latest.reshape(-1).take((times - lo) * n + self.src),
                self.edge_at[busy])


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
    ``pair`` (row ``b·n + i`` of a ``(B·n, n)`` ring slot), ``trial``
    ``b``, node, degree, earliest read time, ``step`` (in the window)
    and where its in-edges start in the window; per in-edge its table
    ``edge``, ``lc`` (the ``b·n + k`` row of its source) and ``flat``
    (that row in the read's ring slot, ``(s mod W)·B·n + b·n + k``);
    per activation without in-edges its ``zero_pair`` and
    ``zero_step``.  ``act_at``/``edge_at``/``zero_at`` are each step's
    offsets, as lists, and ``plans`` each live group's plan (``q``:
    each live trial's group among them).  What only a level of more
    than one step reads — each in-edge's read ``time``, each step's
    ``newest`` read and each activation's ``repeats`` — is built the
    first time one asks for it.
    """

    def __init__(self, live, t: int, steps: int, plans, q, n: int, dtype):
        self.live, self.t, self.steps, self.q = live, t, steps, q
        base = (live * n).astype(dtype)

        def family(offsets, names):
            slices, cols, spans = [], [[] for _ in names], []
            for p in plans:
                at_p = getattr(p, offsets)[t - p.t:t - p.t + steps + 1]
                lo, hi = at_p[[0, -1]].tolist()
                slices.append(at_p - lo)
                spans.append((p, lo, hi))
                for col, name in zip(cols, names):
                    col.append(getattr(p, name)[lo:hi])
            idx, rows, step_at = _stacked(np.stack(slices), q, base, steps)
            return ([np.concatenate(col).take(idx) for col in cols], rows,
                    step_at, (idx, spans))

        (self.node, self.deg, self.read_min), rows, act_at, _ = family(
            "act_at", ("act", "deg", "read_min"))
        (self.edge, src, flat), edge_rows, edge_at, self._edges = family(
            "edge_at", ("edge", "src", "flat"))
        at = np.arange(steps)
        if any(p.zero_at[-1] for p in plans):
            (zero,), zero_rows, zero_at, _ = family("zero_at", ("zero",))
            self.zero_pair = zero_rows + zero
        else:       # every active node has in-edges
            self.zero_pair, zero_at = rows[:0], np.zeros(steps + 1, np.intp)
        self.zero_step = np.repeat(at, np.diff(zero_at))
        self.pair = rows + self.node
        self.trial = rows // n
        self.step = np.repeat(at, np.diff(act_at))
        self.lc, self.flat = src + edge_rows, flat + edge_rows
        self.starts = (np.cumsum(self.deg) - self.deg).astype(self.edge.dtype)
        self.plans = plans
        self.act_at, self.edge_at, self.zero_at = \
            act_at.tolist(), edge_at.tolist(), zero_at.tolist()

    def dep(self, groups) -> List[int]:
        """The latest :attr:`_StepPlan.dep` of the plans ``groups`` over
        the window's steps, as a list."""
        t, steps = self.t, self.steps
        return np.max([p.dep[t - p.t:t - p.t + steps]
                       for p in (self.plans[g] for g in groups)],
                      axis=0).tolist()

    @cached_property
    def time(self):
        """Each in-edge's read time."""
        idx, spans = self._edges
        return np.concatenate([p.times[lo:hi]
                               for p, lo, hi in spans]).take(idx)

    @cached_property
    def newest(self):
        """Each step's latest read time (−1 when it reads nothing), as a
        list."""
        out = np.full(self.steps, -1, dtype=np.int64)
        edge_at = np.asarray(self.edge_at)
        busy = np.flatnonzero(np.diff(edge_at))
        if busy.size:
            out[busy] = np.maximum.reduceat(self.time, edge_at[busy])
        return out.tolist()

    @cached_property
    def repeats(self):
        """``(prev, next)``: per activation, the index of its pair's
        previous and next activation in the window (−1 and the
        activation count when there is none)."""
        pair = self.pair
        order = np.argsort(pair, kind="stable")
        same = pair[order[1:]] == pair[order[:-1]]
        prev = np.full(pair.size, -1, dtype=np.intp)
        nxt = np.full(pair.size, pair.size, dtype=np.intp)
        prev[order[1:][same]] = order[:-1][same]
        nxt[order[:-1][same]] = order[1:][same]
        return prev, nxt


class _DeltaPlan:
    """The δ planner of one stack of trials: the codes rungs' one
    source of what a step activates and reads.

    Trials that share a compiled schedule form a group.  A group's
    steps are planned a window at a time (:class:`_StepPlan`), each
    plan asking for twice the steps the group's last one kept (8 at
    first), and kept until the stack has stepped past them, so each
    (schedule, step) is planned once however many trials share it.
    The in-process windows (:meth:`stack`) stack the live trials'
    plans, with each step's dependency (``dep``) for the window to cut
    into levels (:meth:`VectorizedEngine._delta_window`); a trial that
    finishes inside one leaves it as it is, and the loop resumes it for
    the trials left.  They are bounded by a budget of planned in-edges,
    per schedule and per stack, of ``FOLD_TILE // 8``: about as many
    bytes of int32 indices as a fold tile holds codes.  The remote
    coordinator plans its windows whole (:meth:`wire`) and steps them
    one step at a time, so its plans compute no dependencies.
    A read outside a trial's ring window raises :class:`LookupError`
    only when a live trial reaches that step.  ``windows`` and
    ``stability`` are the trials' read and stability windows.
    """

    def __init__(self, topo: TopologySnapshot, lo: int, scheds, windows,
                 stability):
        self.topo, self.lo, self.windows = topo, lo, windows
        self.stability = stability
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
                      failed, sigma_ok, const_ok):
        """One window of at most ``count`` steps from ``t`` over the
        ``live`` trials: a generator of each level's ``(steps, B)``
        changed flags.  In process the window is the planner's
        (:meth:`_DeltaPlan.stack`): everything a step activates and
        reads is planned for all its steps before the first, so a level
        runs only what depends on the state (:meth:`_delta_level`).  The
        caller stops drawing when a trial finishes; the next call
        resumes the same window for the trials left, whose rows alone it
        folds (the finished trial's ride along unfolded to the window's
        end).

        The window folds one *level* at a time: the longest run of
        steps ``t0 … t1 − 1`` in which every read of every live group
        is *settled* — no activation in ``t0 … s`` wrote the row it
        reads at ``s`` (the groups' ``dep`` is below ``t0`` at every
        step after the first) — and no live trial can complete its
        stability window before ``t1 − 1``: a trial that changes at
        ``t0`` completes it ``sws`` steps later, a constant one that has
        not failed a probe when its constant run does.  By S2 an
        activation depends only on the rows it reads, so a level's
        activations read rows that stood before it and fold as one: the
        sequential part of δ is its dependency levels, not its steps.
        A one-step level is one step of δ, and a trial is probed only
        after a level's last step.  ``unchanged`` and ``failed`` (whose
        current state failed a probe) are the caller's, read at each
        level.
        """
        ring, plan, last_change, prev_read_min = run
        win = plan.stack(live, t, count)
        W, B = ring.shape[:2]
        gone = None         # the window's trials that have finished
        groups = range(len(win.plans))
        if live.size < win.live.size:
            gone = np.ones(B, dtype=bool)
            gone[live] = False
            groups = np.unique(win.q[~gone[win.live]]).tolist()
        dep = win.dep(groups)
        sws = plan.stability[live]
        views = (ring, ring.reshape(W, B * self._n, self._n),
                 last_change.reshape(-1), prev_read_min.reshape(-1),
                 sigma_ok, sigma_ok.reshape(-1), const_ok.reshape(-1))
        k0 = t - win.t
        while k0 < win.steps:
            t0, k1 = win.t + k0, k0 + 1
            while k1 < win.steps and dep[k1] < t0:
                k1 += 1
            held = unchanged[live]
            if k1 > k0 + 1:
                # the first step a live trial may be probed after: a
                # failed one must change first (at t0 at the earliest)
                due = t0 - 1 + int((sws - np.where(failed[live], -1,
                                                   held)).min())
                k1 = max(k0 + 1, min(k1, due - win.t + 1))
            yield self._delta_level(views, win, k0, k1, live[held < W],
                                    gone)
            k0 = k1

    def _delta_level(self, views, win: _Window, k0: int, k1: int, copy,
                     gone):
        """The level of steps ``t0 = win.t + k0 … t1 − 1`` (see
        :meth:`_delta_window`) as one read-diff skip, one fold
        (:func:`delta_fold`: every (trial, active node, in-edge) triple
        is one row of a flat extension matrix, reduced per activation),
        one compare-and-write and one certificate update; returns its
        ``(t1 − t0, B)`` changed flags.

        *Fold before writing.*  Every read is folded from the ring as
        the level found it: one at ``s < t0`` from its own slot, a
        settled one at ``s >= t0`` from slot ``t0 − 1``.  The level's
        writes run up to ``t1 − t0`` slots ahead, over slots a read
        still reaches back to (up to ``W − 1``), so writing first could
        overwrite them.

        *Skip.*  ``last_change``/``prev_read_min`` (the run state) are
        the batch analogue of the incremental engine's
        :class:`~repro.core.incremental.DeltaRowCache`:
        ``last_change[b, k]`` is the last step trial ``b``'s row ``k``
        changed, ``prev_read_min[b, i]`` the earliest read time of
        ``i``'s previous activation.  An activation whose every source
        row provably hasn't changed between its previous reads and its
        current ones recomputes the same row (entry-wise σ over equal
        inputs), so the pair is *skipped* — no gather, no fold, no
        compare — which is what turns high-activation-rate schedules'
        long quiet phases from O(E · n) into O(E) per step.  The reads
        are settled, so the test takes the sources' last changes from
        before the level; a pair activated earlier in the level has that
        activation's earliest read as its previous one.

        *Writes.*  Each activation's row goes into its step's slot and
        every later slot of the level up to the node's next activation
        (of the last ``W``: the ring keeps no more); it changed at its
        step ``u`` if it differs from the node's row at ``u − 1``.  The
        slots start as copies of slot ``t0 − 1``, made for the live
        trials whose state has not been constant for a full ring (every
        slot of the others holds their state), as one slice of trials.

        *Certificates.*  ``sigma_ok``/``const_ok`` fuse the σ-stability
        probe into the fold (the *σ-residual certificate*): an
        activation whose every source row's last change is at or before
        the activation's earliest read computed its row against the
        *current* source rows, i.e. the row already equals its σ-row —
        ``sigma_ok[b, i]`` records that.  Any change in trial ``b``
        invalidates its certificates (a source may have moved), so a
        level keeps the ones recorded at or after the trial's last
        change in it, checked on the last changes at the level's end;
        rows with no in-edges always produce the same constant σ-row,
        so one activation certifies them permanently (``const_ok``).
        The probe in :meth:`_delta_stack` then σ-checks only the
        uncertified rows — usually none after a full quiet window —
        instead of the whole ``(n, n)`` state.
        """
        ring, slots, last, prm, sigma_ok, certified, constant = views
        n, topo = self._n, self._topo
        W, B = ring.shape[:2]
        steps, t0 = k1 - k0, win.t + k0
        multi = steps > 1
        a0, a1 = win.act_at[k0], win.act_at[k1]
        z0, z1 = win.zero_at[k0], win.zero_at[k1]
        ran = []        # (rows, their new rows, their steps in the window)
        twice = False   # whether a row of them runs twice in the level
        if a1 > a0:
            e0, e1 = win.edge_at[k0], win.edge_at[k1]
            pair, read_min = win.pair[a0:a1], win.read_min[a0:a1]
            starts, lc = win.starts[a0:a1] - e0, win.lc[e0:e1]
            prior = prm.take(pair)
            again = None    # which activations repeat a pair of the level
            if multi:
                prev, nxt = win.repeats
                prev = prev[a0:a1]
                again = prev >= a0
                if np.count_nonzero(again):
                    prior = np.where(again, win.read_min.take(prev), prior)
                    final = nxt[a0:a1] >= a1
                    prm[pair[final]] = read_min[final]
                else:
                    again = None
            if again is None:
                prm[pair] = read_min
            # -- read-diff skip (vectorized DeltaRowCache) --------------
            # sound because entry (i, j) is a pure fold of the sources'
            # reads: if no source row changed anywhere in the span
            # between the previous activation's reads and this one's,
            # the fold recomputes the row it already produced
            src_last = np.maximum.reduceat(last.take(lc), starts)
            skip = src_last <= np.minimum(read_min, prior)
            if gone is not None:
                skip |= gone[win.trial[a0:a1]]
            skipped = np.count_nonzero(skip)
            if skipped < skip.size:
                rows, node, at = pair, win.node[a0:a1], win.step[a0:a1]
                flat, edge, folds = win.flat[e0:e1], win.edge[e0:e1], starts
                if multi and max(win.newest[k0 + 1:k1]) >= t0:
                    # a settled read at t0 or later: the row at t0 − 1
                    flat = np.where(win.time[e0:e1] >= t0,
                                    lc + (t0 - 1) % W * B * n, flat)
                if skipped:
                    keep = ~skip
                    deg = win.deg[a0:a1]
                    edges = keep.repeat(deg)
                    deg = deg[keep]
                    rows, node, at = rows[keep], node[keep], at[keep]
                    flat, edge = flat[edges], edge[edges]
                    folds = deg.cumsum() - deg
                    if again is not None:
                        again = again[keep]
                twice = again is not None and bool(np.count_nonzero(again))
                new = delta_fold(ring, flat, edge, folds, topo.tables,
                                 topo.affine)
                new[np.arange(rows.size), node] = self.trivial_code
                ran.append((rows, new, at))
        if z1 > z0:
            zero, at = win.zero_pair[z0:z1], win.zero_step[z0:z1]
            if gone is not None:
                kept = ~gone[zero // n]
                zero, at = zero[kept], at[kept]
            if zero.size:       # a node without in-edges: a constant row
                new = np.full((zero.size, n), self.invalid_code,
                              dtype=ring.dtype)
                new[np.arange(zero.size), zero % n] = self.trivial_code
                constant[zero] = True
                ran.append((zero, new, at))
                twice = twice or multi
        hit = order = None
        if ran:
            rows, new, at = ran[0] if len(ran) == 1 else (
                np.concatenate(x) for x in zip(*ran))
            before = slots[(t0 - 1) % W].take(rows, axis=0)
            if twice:
                # a row's activations in step order: the row before each
                # is its previous one's
                order = np.lexsort((at, rows))
                same = rows[order[1:]] == rows[order[:-1]]
                before[order[1:][same]] = new[order[:-1][same]]
            moved = (new != before).any(axis=1)
            if order is not None:
                moved = moved[order]
            hit = moved.nonzero()[0]
            if hit.size == 0:
                hit = None
            elif order is not None:
                hit = order[hit]                # by row, then step
        if copy.size:
            # the trials from the first to the last to copy: the others
            # among them hold their state in every slot, or have finished
            c0, c1 = copy[0], copy[-1] + 1
            src = ring[(t0 - 1) % W, c0:c1]
            if steps < W:
                first, count = t0 % W, steps
            else:
                first, count, src = (t0 + steps) % W, W, src.copy()
            ring[first:first + count, c0:c1] = src
            if first + count > W:
                ring[:first + count - W, c0:c1] = src
        flags = np.zeros((steps, B), dtype=bool)
        if hit is not None:
            rows, at, new = rows[hit], at[hit] - k0, new[hit]
            trials = rows // n
            upto = steps    # each change stands until the row's next one
            if order is None:
                last[rows] = t0 + at
            else:           # by row, then step: a row may change twice
                same = rows[1:] == rows[:-1]
                upto = np.full(rows.size, steps)
                upto[:-1][same] = at[1:][same]
                np.maximum.at(last, rows, t0 + at)
            if multi:
                col = np.arange(max(0, steps - W), steps)[:, None]
                u, h = ((col >= at) & (col < upto)).nonzero()
                slots[(t0 + col[u, 0]) % W, rows[h]] = new[h]
            else:   # most levels are one step: one slot, nothing to fill
                slots[t0 % W][rows] = new
            flags[at, trials] = True
        sigma_ok[flags.any(axis=0)] = False
        if a1 > a0:
            if hit is not None:
                src_last = np.maximum.reduceat(last.take(lc), starts)
            ok = src_last <= read_min
            if multi and hit is not None:
                # only what the level recorded since the trial last changed
                # (a one-step level records every certificate at its step)
                since = np.full(B, -1)
                np.maximum.at(since, trials, at)
                ok &= win.step[a0:a1] - k0 >= since[win.trial[a0:a1]]
            certified[pair[ok]] = True
        return flags

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
        levels certified), or after ``max_steps``.  A rung supplies three
        hooks: how a run starts (:meth:`_delta_begin`, given the stack's
        planner :class:`_DeltaPlan`), one window of steps yielding the
        ``(steps, B)`` changed flags of consecutive steps after whose
        last alone a trial may be probed (:meth:`_delta_window`: in
        process a level at a time, on the remote rung a step at a time)
        and a trial's code matrix at step ``t`` (:meth:`_delta_state`) —
        here trials stack along the batch axis of one ring and a window
        is the planner's.  Each yield moves the unchanged counts and the
        failed probes with one array update.  A window is left as soon
        as a trial finishes, so a finished trial is never stepped or
        probed again.

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
        plan = _DeltaPlan(self._topo, lo, scheds, windows, sws)
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
            for flags in self._delta_window(
                    run, t, max_steps - t + 1, live, unchanged, failed,
                    sigma_ok, const_ok):
                steps = len(flags)
                t += steps
                unchanged += steps
                changed = flags.any(axis=0)
                if np.count_nonzero(changed):
                    # steps since each changed trial's last change
                    unchanged[changed] = flags[::-1, changed].argmax(axis=0)
                    failed[changed] = False
                now = t - 1
                finished = False
                for b in ((unchanged >= sws)
                          & ~(failed | done)).nonzero()[0].tolist():
                    state = self._delta_state(run, b, now)
                    rest = np.flatnonzero(~(sigma_ok[b] | const_ok[b]))
                    if rest.size:
                        if not (self._sigma_rows(state, rest)
                                == state[rest]).all():
                            failed[b] = True
                            continue
                        sigma_ok[b, rest] = True
                    done[b] = converged[b] = finished = True
                    steps_res[b] = now
                    conv_at[b] = now - int(unchanged[b])
                    final[b] = state.copy()
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
