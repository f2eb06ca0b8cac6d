"""Simple paths and the ``weight``/``path`` machinery of Section 5.1.

Representation
--------------

A (valid) path is a tuple of node ids ``(v0, v1, ..., vk)`` read from the
route's owner ``v0`` to the destination ``vk``.  The paper's *empty path*
``[]`` — the path of the trivial route 0̄ — is the empty tuple ``()``.
The invalid path ``⊥`` is the module-level singleton :data:`BOTTOM`.

The paper phrases paths as sequences of edges ``(i, j) :: q``; with the
node-tuple representation the extension ``(i, j) :: q`` becomes
``(i,) + q`` and is *admissible* (written ``(i, j) ⇿ q`` in the paper's
Agda) when either ``q`` is empty (we are extending the destination's own
trivial route, so any edge into it is fine) or ``j == q[0]`` (the edge
must plug into the head of the path).  The simplicity check ``i ∉ q``
rejects loops.

Weight
------

``weight(p)`` (Section 5.1) folds the adjacency matrix along the path::

    weight(⊥)          = ∞̄
    weight([])         = 0̄
    weight((i,j) :: q) = A_ij(weight(q))

Consistency (Definition 15) — ``weight(path(r)) == r`` — and the
enumeration of the finite set of consistent routes ``S_c`` both live
here too.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple


class _Bottom:
    """The invalid path ⊥ (singleton)."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_Bottom, ())


#: The invalid path ⊥ — the path of the invalid route (P1).
BOTTOM = _Bottom()

Path = Tuple[int, ...]
"""A valid path: tuple of node ids, source first.  ``()`` is the empty path."""


def is_valid_path(p) -> bool:
    """True for a tuple path, False for ⊥."""
    return p is not BOTTOM


def is_simple(p) -> bool:
    """A path is simple when it visits no node twice (⊥ counts as simple)."""
    if p is BOTTOM:
        return True
    return len(set(p)) == len(p)


def src(p):
    """Source (owner) of a path; ``None`` for the empty path and ⊥."""
    if p is BOTTOM or len(p) == 0:
        return None
    return p[0]


def dst(p):
    """Destination of a path; ``None`` for the empty path and ⊥."""
    if p is BOTTOM or len(p) == 0:
        return None
    return p[-1]


def length(p) -> int:
    """Number of edges in the path (0 for ``[]``; 0 for ⊥ by convention)."""
    if p is BOTTOM or len(p) == 0:
        return 0
    return len(p) - 1


def can_extend(i: int, j: int, p) -> bool:
    """Is ``(i, j) :: p`` an admissible, loop-free extension? (P3 guards)

    Admissible means the edge plugs into the head of ``p`` (or ``p`` is
    the empty path), and loop-free means ``i`` does not already appear.
    """
    if p is BOTTOM:
        return False
    if len(p) == 0:
        return i != j
    return j == p[0] and i not in p


def extend(i: int, j: int, p):
    """Compute ``(i, j) :: p`` following P3: ⊥ when the guards fail.

    * ``⊥`` if ``i`` already appears in ``p`` (loop),
    * ``⊥`` if ``j`` is not the source of ``p`` (stale/mismatched route),
    * ``(i,) + p`` otherwise (with ``p = ()`` extending to ``(i, j)``).
    """
    if not can_extend(i, j, p):
        return BOTTOM
    if len(p) == 0:
        return (i, j)
    return (i,) + p


def weight(algebra, network, p):
    """Fold the adjacency matrix along ``p`` (Section 5.1).

    ``network`` is a :class:`repro.core.state.Network`; ``algebra`` is
    its routing algebra (passed separately so path algebras can compute
    weights of their *underlying* algebra when needed).
    """
    if p is BOTTOM:
        return algebra.invalid
    if len(p) == 0:
        return algebra.trivial
    acc = algebra.trivial
    # fold right-to-left: weight((i,j)::q) = A_ij(weight(q))
    for idx in range(len(p) - 2, -1, -1):
        i, j = p[idx], p[idx + 1]
        acc = network.edge(i, j)(acc)
    return acc


def all_simple_paths_to(network, dest: int, max_len: Optional[int] = None) -> Iterator[Path]:
    """Enumerate every simple path in the topology ending at ``dest``.

    Includes single-edge paths and longer ones; does *not* include the
    empty path.  Paths are enumerated over the edges actually present in
    ``network`` (absent edges weigh ∞̄, so they generate no consistent
    route other than ∞̄ itself, which is handled separately).

    ``max_len`` optionally caps the number of edges (defaults to n - 1,
    the maximum for a simple path).
    """
    n = network.n
    cap = max_len if max_len is not None else n - 1
    # predecessor adjacency: which i have a real edge i -> j
    preds: List[List[int]] = [[] for _ in range(n)]
    for (i, j) in network.present_edges():
        preds[j].append(i)

    def grow(path: Path) -> Iterator[Path]:
        if length(path) >= cap:
            return
        head = path[0]
        for i in preds[head]:
            if i not in path:
                new = (i,) + path
                yield new
                yield from grow(new)

    seed: Path = (dest,)
    # single node is not a path with edges; start growing from it
    yield from grow(seed)


def enumerate_consistent_routes(algebra, network, dest: Optional[int] = None):
    """Enumerate ``S_c = {weight(p) | p ∈ 𝒫}`` (Section 5.1).

    Returns a list of distinct routes.  Always contains ∞̄ (= weight(⊥))
    and 0̄ (= weight([])).  When ``dest`` is given, only paths ending at
    that destination are folded — this is the per-destination carrier
    used by the per-column fixed-point enumeration.
    """
    seen = {}

    def note(r):
        for key in seen:
            if algebra.equal(seen[key], r):
                return
        seen[len(seen)] = r

    note(algebra.invalid)
    note(algebra.trivial)
    dests = [dest] if dest is not None else list(range(network.n))
    for d in dests:
        for p in all_simple_paths_to(network, d):
            note(weight(algebra, network, p))
    return list(seen.values())
