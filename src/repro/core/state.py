"""Routing state matrices, adjacency matrices and networks (Section 2.2).

The paper represents the *global routing state* as an ``n × n`` matrix
``X`` over the route set ``S`` — row ``i`` is node ``i``'s routing table
and ``X[i][j]`` is node ``i``'s best current route to destination ``j``.
The *topology* is an ``n × n`` adjacency matrix ``A`` over the edge
functions ``F`` — ``A[i][k]`` is the policy function applied by node
``i`` to routes learned from neighbour ``k``; a missing edge is the
constant-∞̄ function.

:class:`Network` bundles the algebra with the adjacency matrix; the
synchronous operator σ and the asynchronous operator δ are defined over
networks in :mod:`repro.core.synchronous` / :mod:`repro.core.asynchronous`.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebra import ConstantEdge, EdgeFunction, Route, RoutingAlgebra


class NetworkTopology:
    """Immutable per-node neighbour snapshot of an adjacency matrix.

    Precomputes, in one pass over the edge set,

    * ``in_neighbours[i]`` — the nodes ``k`` that ``i`` imports from
      (``A[i][k]`` present), ascending;
    * ``out_neighbours[k]`` — the nodes ``i`` that import from ``k``,
      ascending;
    * ``in_edges[i]`` — ``(k, A[i][k])`` pairs, ascending in ``k``, so
      engines fold σ's big-⊕ without any per-entry dict lookups.

    Snapshots are cached on the adjacency matrix and rebuilt lazily on
    the next ``.topology`` access after any :meth:`AdjacencyMatrix.set`
    / :meth:`AdjacencyMatrix.remove`.  A snapshot held *across* a
    mutation is not auto-refreshed — re-read ``.topology`` after
    topology changes (the engines do this every round); ``version`` can
    be compared against ``adjacency.version`` to check freshness.
    """

    __slots__ = ("n", "version", "in_neighbours", "out_neighbours", "in_edges")

    def __init__(self, adjacency: "AdjacencyMatrix"):
        n = adjacency.n
        self.n = n
        self.version = adjacency.version
        ins: List[List[int]] = [[] for _ in range(n)]
        outs: List[List[int]] = [[] for _ in range(n)]
        in_edges: List[List[Tuple[int, EdgeFunction]]] = [[] for _ in range(n)]
        for (i, k) in adjacency.present_edges():   # sorted by (i, k)
            ins[i].append(k)
            outs[k].append(i)
            in_edges[i].append((k, adjacency(i, k)))
        self.in_neighbours = ins
        self.out_neighbours = outs
        self.in_edges = in_edges


class AdjacencyMatrix:
    """An ``n × n`` matrix of edge functions.

    Only present edges are stored; ``self(i, k)`` returns the constant
    invalid function for absent entries, implementing the paper's
    "missing edges are the constant function f(a) = ∞̄".

    The sorted edge view and the :class:`NetworkTopology` neighbour
    snapshot are cached and invalidated on mutation, so engines pay for
    neighbour derivation once per topology rather than once per call.

    Every version bump also appends its arc, as the key ``i·n + k``, to
    an *arc log* (:meth:`arcs_since`), so a derived snapshot can be
    patched for what changed instead of rebuilt.  The log keeps the
    latest bumps only, at most one per installed edge: it never
    outgrows the matrix it describes, and a reader whose version it no
    longer reaches back to rebuilds.
    """

    def __init__(self, n: int, algebra: RoutingAlgebra,
                 edges: Optional[Dict[Tuple[int, int], EdgeFunction]] = None):
        if n <= 0:
            raise ValueError("a network needs at least one node")
        self.n = n
        self.algebra = algebra
        self._absent = ConstantEdge(algebra.invalid)
        self._edges: Dict[Tuple[int, int], EdgeFunction] = {}
        self._version = 0
        self._log = array("q")      # arc i·n + k of each bump, oldest first
        self._log_base = 0          # the version before log[0]'s bump
        self._sorted: Optional[List[Tuple[int, int]]] = None
        self._topology: Optional[NetworkTopology] = None
        if edges:
            for (i, k), fn in edges.items():
                self.set(i, k, fn)

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped by every ``set`` and by
        every ``remove`` of a present edge (removing an absent one changes
        nothing, so it keeps the version)."""
        return self._version

    def _invalidate(self, i: int, k: int) -> None:
        self._version += 1
        self._sorted = None
        self._topology = None
        log = self._log
        log.append(i * self.n + k)
        extra = len(log) - len(self._edges)
        if extra > 0:
            del log[:extra]
            self._log_base += extra

    def arcs_since(self, version: int) -> Optional[array]:
        """The arcs changed after ``version``: one key ``i·n + k`` per
        version bump since, oldest first (an arc can repeat), or
        ``None`` when the log no longer reaches back to ``version``."""
        start = version - self._log_base
        if not 0 <= start <= len(self._log):
            return None
        return self._log[start:]

    def set(self, i: int, k: int, fn: EdgeFunction) -> None:
        """Install edge function ``A[i][k] = fn`` (i imports from k)."""
        self._check(i, k)
        self._edges[(i, k)] = fn
        self._invalidate(i, k)

    def remove(self, i: int, k: int) -> None:
        """Delete the edge ``(i, k)``; it reverts to the constant-∞̄ map."""
        self._check(i, k)
        if self._edges.pop((i, k), None) is not None:
            self._invalidate(i, k)

    def __call__(self, i: int, k: int) -> EdgeFunction:
        """``A[i][k]``: the edge function, constant-∞̄ when absent."""
        self._check(i, k)
        return self._edges.get((i, k), self._absent)

    def has_edge(self, i: int, k: int) -> bool:
        """True when an explicit (non-∞̄) edge function is installed."""
        return (i, k) in self._edges

    def present_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over the (i, k) pairs with an installed edge function.

        The sorted view is cached; mutation invalidates it, so repeated
        calls on a stable topology are O(1) rather than O(E log E).
        """
        if self._sorted is None:
            self._sorted = sorted(self._edges)
        return iter(self._sorted)

    @property
    def topology(self) -> NetworkTopology:
        """The cached :class:`NetworkTopology` snapshot (rebuilt lazily)."""
        if self._topology is None:
            self._topology = NetworkTopology(self)
        return self._topology

    def _check(self, i: int, k: int) -> None:
        if not (0 <= i < self.n and 0 <= k < self.n):
            raise IndexError(f"edge ({i}, {k}) out of range for n={self.n}")

    def __repr__(self) -> str:
        return (f"AdjacencyMatrix(n={self.n}, algebra={self.algebra.name}, "
                f"edges={len(self._edges)})")


class Network:
    """A routing problem instance: an algebra plus an adjacency matrix.

    This is the paper's pair ``(A, (S, ⊕, F, 0̄, ∞̄))``.  All engines
    (σ, δ, the event simulator) take a network and never look inside
    the algebra beyond its public interface.
    """

    def __init__(self, algebra: RoutingAlgebra, n: int,
                 edges: Optional[Dict[Tuple[int, int], EdgeFunction]] = None,
                 name: str = "network"):
        self.algebra = algebra
        self.n = n
        self.adjacency = AdjacencyMatrix(n, algebra, edges)
        self.name = name

    # -- delegation -----------------------------------------------------

    def edge(self, i: int, k: int) -> EdgeFunction:
        """``A[i][k]`` — the policy node ``i`` applies to routes from ``k``."""
        return self.adjacency(i, k)

    def set_edge(self, i: int, k: int, fn: EdgeFunction) -> None:
        self.adjacency.set(i, k, fn)

    def remove_edge(self, i: int, k: int) -> None:
        self.adjacency.remove(i, k)

    def present_edges(self) -> Iterator[Tuple[int, int]]:
        return self.adjacency.present_edges()

    @property
    def topology(self) -> NetworkTopology:
        """Cached per-node neighbour snapshot (see :class:`NetworkTopology`)."""
        return self.adjacency.topology

    def neighbours_in(self, i: int) -> List[int]:
        """Nodes ``k`` that node ``i`` imports routes from (A[i][k] present)."""
        return list(self.adjacency.topology.in_neighbours[i])

    def neighbours_out(self, k: int) -> List[int]:
        """Nodes ``i`` that import routes from ``k`` (A[i][k] present)."""
        return list(self.adjacency.topology.out_neighbours[k])

    def copy(self) -> "Network":
        """Shallow-copy the topology (edge functions are shared; they are
        immutable by convention)."""
        clone = Network(self.algebra, self.n, name=self.name)
        for (i, k) in self.adjacency.present_edges():
            clone.set_edge(i, k, self.adjacency(i, k))
        return clone

    def __repr__(self) -> str:
        return f"Network({self.name!r}, n={self.n}, algebra={self.algebra.name})"


class RoutingState:
    """An ``n × n`` matrix of routes: the global routing state ``X``.

    Row ``i`` is node ``i``'s routing table.  States are value objects:
    equality is element-wise route equality; engines never mutate a
    state they were given (they build successors).  Successors built by
    the incremental engines *share* unchanged row objects with their
    predecessor (:meth:`adopt`), so treat every engine-produced state as
    frozen — use :meth:`copy` before calling :meth:`set`.
    """

    __slots__ = ("n", "rows")

    def __init__(self, rows: Sequence[Sequence[Route]]):
        self.n = len(rows)
        self.rows: List[List[Route]] = [list(r) for r in rows]
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("routing state must be a square matrix")

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls, algebra: RoutingAlgebra, n: int) -> "RoutingState":
        """The matrix ``I``: 0̄ on the diagonal, ∞̄ elsewhere."""
        return cls([[algebra.trivial if i == j else algebra.invalid
                     for j in range(n)] for i in range(n)])

    @classmethod
    def filled(cls, value: Route, n: int) -> "RoutingState":
        """A state with every entry equal to ``value``."""
        return cls([[value for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_function(cls, fn, n: int) -> "RoutingState":
        """Build a state entry-wise from ``fn(i, j)``."""
        return cls([[fn(i, j) for j in range(n)] for i in range(n)])

    @classmethod
    def adopt(cls, rows: List[List[Route]]) -> "RoutingState":
        """Wrap ``rows`` *without copying* (engine fast path).

        The incremental engines build successors that share unchanged
        row objects with their predecessor, so the square-matrix copy in
        ``__init__`` would defeat the point.  Callers hand over
        ownership: adopted rows (including rows shared from earlier
        states) must never be mutated afterwards — states are immutable
        by convention.
        """
        state = cls.__new__(cls)
        state.n = len(rows)
        state.rows = rows
        return state

    # -- access ----------------------------------------------------------

    def get(self, i: int, j: int) -> Route:
        return self.rows[i][j]

    def set(self, i: int, j: int, route: Route) -> None:
        """Overwrite one entry **in place**.

        Only call this on a state you built yourself (or obtained via
        :meth:`copy`).  States produced by the engines share unchanged
        row objects with their predecessors (see :meth:`adopt`), so
        mutating one would silently corrupt every state in the
        trajectory/history that shares the row.
        """
        self.rows[i][j] = route

    def row(self, i: int) -> List[Route]:
        """Node ``i``'s routing table (a copy)."""
        return list(self.rows[i])

    def column(self, j: int) -> List[Route]:
        """All nodes' routes towards destination ``j`` (a copy)."""
        return [self.rows[i][j] for i in range(self.n)]

    def entries(self) -> Iterator[Tuple[int, int, Route]]:
        for i in range(self.n):
            for j in range(self.n):
                yield i, j, self.rows[i][j]

    def copy(self) -> "RoutingState":
        return RoutingState(self.rows)

    # -- algebra-aware helpers --------------------------------------------

    def equals(self, other: "RoutingState", algebra: RoutingAlgebra) -> bool:
        """Element-wise equality under the algebra's route equality.

        Returns on the first mismatch.  A row is first compared whole
        with ``==`` (list equality, at C speed), which is exact because
        every algebra's ``equal`` is ``==`` or a quotient of it
        (:meth:`~repro.core.algebra.RoutingAlgebra.equal`); only rows
        that differ under ``==`` are walked entry by entry with the
        hoisted ``algebra.equal``.  Rows shared structurally between the
        two states (common under the incremental engines) are skipped by
        identity.
        """
        if self is other:
            return True
        if self.n != other.n:
            return False
        equal = algebra.equal
        for mine, theirs in zip(self.rows, other.rows):
            if mine is theirs or mine == theirs:
                continue
            for a, b in zip(mine, theirs):
                if not equal(a, b):
                    return False
        return True

    def choice(self, other: "RoutingState", algebra: RoutingAlgebra) -> "RoutingState":
        """Element-wise ⊕: ``(X ⊕ Y)[i][j] = X[i][j] ⊕ Y[i][j]``."""
        return RoutingState([[algebra.choice(self.rows[i][j], other.rows[i][j])
                              for j in range(self.n)] for i in range(self.n)])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, RoutingState) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self) -> str:
        return f"RoutingState(n={self.n})"

    def pretty(self, cell_width: int = 18) -> str:
        """Tabular rendering for debugging and example scripts."""
        lines = []
        header = " " * 6 + "".join(f"to {j:<{cell_width - 3}}" for j in range(self.n))
        lines.append(header)
        for i in range(self.n):
            cells = "".join(f"{str(self.rows[i][j]):<{cell_width}}"
                            for j in range(self.n))
            lines.append(f"node {i:<2}{cells}")
        return "\n".join(lines)
