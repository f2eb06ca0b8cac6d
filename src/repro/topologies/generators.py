"""Topology generators.

Every generator returns a :class:`~repro.core.state.Network` built from
an algebra and an *edge factory* — a callable ``factory(rng, i, j)``
producing the edge function installed on the directed edge ``(i, j)``.
Keeping weight/policy synthesis in the factory keeps generators fully
algebra-agnostic, exactly as the paper's theorems are.

Helpers at the bottom build the standard factories for the shipped
algebras (uniform random weights, random BGPLite policies, lifted
path-algebra edges, ...).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Sequence, Tuple

import networkx as nx

from ..core.algebra import EdgeFunction, RoutingAlgebra
from ..core.state import Network

EdgeFactory = Callable[[random.Random, int, int], EdgeFunction]


def build_network(algebra: RoutingAlgebra, n: int,
                  arcs: Iterable[Tuple[int, int]], factory: EdgeFactory,
                  seed: int = 0, name: str = "network") -> Network:
    """Assemble a network by running ``factory`` over ``arcs``."""
    rng = random.Random(seed)
    net = Network(algebra, n, name=name)
    for (i, j) in arcs:
        net.set_edge(i, j, factory(rng, i, j))
    return net


def _both_ways(pairs: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for (i, j) in pairs:
        out.append((i, j))
        out.append((j, i))
    return out


# ----------------------------------------------------------------------
# Deterministic families
# ----------------------------------------------------------------------


def line(algebra: RoutingAlgebra, n: int, factory: EdgeFactory,
         seed: int = 0) -> Network:
    """The path graph 0 — 1 — ... — (n-1), both directions."""
    return build_network(algebra, n,
                         _both_ways((i, i + 1) for i in range(n - 1)),
                         factory, seed, name=f"line-{n}")


def ring(algebra: RoutingAlgebra, n: int, factory: EdgeFactory,
         seed: int = 0) -> Network:
    """The cycle on n nodes, both directions."""
    return build_network(algebra, n,
                         _both_ways((i, (i + 1) % n) for i in range(n)),
                         factory, seed, name=f"ring-{n}")


def star(algebra: RoutingAlgebra, n: int, factory: EdgeFactory,
         seed: int = 0) -> Network:
    """Node 0 at the hub, nodes 1..n-1 as spokes."""
    return build_network(algebra, n,
                         _both_ways((0, i) for i in range(1, n)),
                         factory, seed, name=f"star-{n}")


def complete(algebra: RoutingAlgebra, n: int, factory: EdgeFactory,
             seed: int = 0) -> Network:
    """The complete directed graph (every ordered pair)."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return build_network(algebra, n, arcs, factory, seed, name=f"complete-{n}")


def grid(algebra: RoutingAlgebra, rows: int, cols: int, factory: EdgeFactory,
         seed: int = 0) -> Network:
    """A rows×cols mesh (4-neighbour), both directions."""
    def nid(r: int, c: int) -> int:
        return r * cols + c

    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < rows:
                pairs.append((nid(r, c), nid(r + 1, c)))
    return build_network(algebra, rows * cols, _both_ways(pairs), factory,
                         seed, name=f"grid-{rows}x{cols}")


# ----------------------------------------------------------------------
# Random families (via networkx)
# ----------------------------------------------------------------------


def erdos_renyi(algebra: RoutingAlgebra, n: int, p: float,
                factory: EdgeFactory, seed: int = 0,
                ensure_connected: bool = True) -> Network:
    """G(n, p) random graph, symmetrised, optionally patched to be connected."""
    g = nx.gnp_random_graph(n, p, seed=seed)
    if ensure_connected:
        comps = [sorted(c) for c in nx.connected_components(g)]
        for a, b in zip(comps, comps[1:]):
            g.add_edge(a[0], b[0])
    return build_network(algebra, n, _both_ways(g.edges()), factory, seed,
                         name=f"gnp-{n}-{p}")


def barabasi_albert(algebra: RoutingAlgebra, n: int, m: int,
                    factory: EdgeFactory, seed: int = 0) -> Network:
    """Preferential-attachment graph (Internet-ish degree distribution)."""
    g = nx.barabasi_albert_graph(n, m, seed=seed)
    return build_network(algebra, n, _both_ways(g.edges()), factory, seed,
                         name=f"ba-{n}-{m}")


# ----------------------------------------------------------------------
# Data-center fabric (Section 8.3 motivation)
# ----------------------------------------------------------------------


def fat_tree(algebra: RoutingAlgebra, k: int, factory: EdgeFactory,
             seed: int = 0) -> Network:
    """A k-ary fat-tree fabric (k even): the BGP-in-the-data-center setting.

    Layout: (k/2)² core switches, k pods of k/2 aggregation + k/2 edge
    switches.  Node ids: cores first, then per pod aggregation then
    edge.  Hosts are not modelled (routing happens between switches).
    """
    if k % 2:
        raise ValueError("fat-tree arity k must be even")
    half = k // 2
    n_core = half * half
    n = n_core + k * k  # per pod: k/2 agg + k/2 edge

    def agg(pod: int, idx: int) -> int:
        return n_core + pod * k + idx

    def edge_sw(pod: int, idx: int) -> int:
        return n_core + pod * k + half + idx

    pairs = []
    for pod in range(k):
        for a in range(half):
            # aggregation a connects to cores [a*half, (a+1)*half)
            for c in range(a * half, (a + 1) * half):
                pairs.append((agg(pod, a), c))
            for e in range(half):
                pairs.append((agg(pod, a), edge_sw(pod, e)))
    return build_network(algebra, n, _both_ways(pairs), factory, seed,
                         name=f"fat-tree-{k}")


# ----------------------------------------------------------------------
# Gao–Rexford hierarchies
# ----------------------------------------------------------------------


def gao_rexford_hierarchy(n_tier1: int = 2, n_tier2: int = 4, n_tier3: int = 8,
                          peer_prob: float = 0.5, seed: int = 0):
    """A three-tier customer/provider hierarchy with tier-internal peering.

    Returns ``(network, relationships)`` where the network uses
    :class:`~repro.algebras.gao_rexford.GaoRexfordAlgebra` and
    ``relationships[(i, j)]`` records what ``j`` is to ``i``.

    * tier-1 nodes peer with each other (full mesh);
    * each tier-2 node buys transit from 1–2 tier-1 providers;
    * each tier-3 node buys transit from 1–2 tier-2 providers;
    * same-tier nodes peer with probability ``peer_prob``.
    """
    from ..algebras.gao_rexford import GaoRexfordAlgebra, Rel

    rng = random.Random(seed)
    n = n_tier1 + n_tier2 + n_tier3
    tier1 = list(range(n_tier1))
    tier2 = list(range(n_tier1, n_tier1 + n_tier2))
    tier3 = list(range(n_tier1 + n_tier2, n))
    algebra = GaoRexfordAlgebra(n_nodes=n)
    net = Network(algebra, n, name=f"gr-hierarchy-{n}")
    rels = {}

    def connect(customer: int, provider: int) -> None:
        # customer imports from provider; provider imports from customer
        rels[(customer, provider)] = Rel.PROVIDER
        rels[(provider, customer)] = Rel.CUSTOMER
        net.set_edge(customer, provider,
                     algebra.edge(customer, provider, Rel.PROVIDER))
        net.set_edge(provider, customer,
                     algebra.edge(provider, customer, Rel.CUSTOMER))

    def peer(a: int, b: int) -> None:
        rels[(a, b)] = Rel.PEER
        rels[(b, a)] = Rel.PEER
        net.set_edge(a, b, algebra.edge(a, b, Rel.PEER))
        net.set_edge(b, a, algebra.edge(b, a, Rel.PEER))

    for idx, a in enumerate(tier1):
        for b in tier1[idx + 1:]:
            peer(a, b)
    for c in tier2:
        for p in rng.sample(tier1, rng.randint(1, min(2, len(tier1)))):
            connect(c, p)
    for c in tier3:
        for p in rng.sample(tier2, rng.randint(1, min(2, len(tier2)))):
            connect(c, p)
    for tier in (tier2, tier3):
        for idx, a in enumerate(tier):
            for b in tier[idx + 1:]:
                if rng.random() < peer_prob and (a, b) not in rels:
                    peer(a, b)
    return net, rels


# ----------------------------------------------------------------------
# AS-level scale-free graphs (Elmokashfi et al. style)
# ----------------------------------------------------------------------


def _weighted_distinct(rng: random.Random, candidates: Sequence[int],
                       weights: Sequence[float], k: int) -> List[int]:
    """``k`` distinct draws from ``candidates``, probability ∝ weight
    (sequential draws with removal; deterministic in ``rng``)."""
    pool = list(candidates)
    pw = list(weights)
    out: List[int] = []
    for _ in range(min(k, len(pool))):
        total = sum(pw)
        mark = rng.random() * total
        acc = 0.0
        idx = len(pool) - 1
        for pos, w in enumerate(pw):
            acc += w
            if mark < acc:
                idx = pos
                break
        out.append(pool.pop(idx))
        pw.pop(idx)
    return out


def elmokashfi_as_graph(algebra: RoutingAlgebra, n: int,
                        factory: EdgeFactory, seed: int = 0,
                        peer_prob: float = 0.2) -> Network:
    """A scale-free AS-level topology in the style of Elmokashfi et al.

    Three populations: a small tier-1 clique (~1 % of ``n``, at least
    three), a mid-tier (~15 %) whose members multihome to two providers
    chosen preferentially by current degree, and stub ASes buying
    transit from one or two mid-tier providers (again
    degree-preferential).  Same-population mid-tier pairs peer with
    probability ``peer_prob``.  Structure and edge draws are both
    deterministic in ``seed``.
    """
    if n < 8:
        raise ValueError("elmokashfi_as_graph needs n >= 8")
    rng = random.Random(seed)
    n_t1 = max(3, round(0.01 * n))
    n_mid = max(2, round(0.15 * n))
    tier1 = list(range(n_t1))
    mid = list(range(n_t1, n_t1 + n_mid))
    stubs = list(range(n_t1 + n_mid, n))
    degree = [0] * n
    pairs: List[Tuple[int, int]] = []

    def link(a: int, b: int) -> None:
        pairs.append((a, b))
        degree[a] += 1
        degree[b] += 1

    for idx, a in enumerate(tier1):
        for b in tier1[idx + 1:]:
            link(a, b)
    for m in mid:
        providers = tier1 + [x for x in mid if x < m]
        for p in _weighted_distinct(rng, providers,
                                    [degree[x] + 1 for x in providers], 2):
            link(m, p)
    for s in stubs:
        k = rng.randint(1, 2)
        for p in _weighted_distinct(rng, mid,
                                    [degree[x] + 1 for x in mid], k):
            link(s, p)
    for idx, a in enumerate(mid):
        for b in mid[idx + 1:]:
            if rng.random() < peer_prob and (a, b) not in pairs:
                link(a, b)
    return build_network(algebra, n, _both_ways(pairs), factory, seed,
                         name=f"elmokashfi-{n}")


# ----------------------------------------------------------------------
# iBGP route-reflector overlays
# ----------------------------------------------------------------------


def route_reflector_hierarchy(algebra: RoutingAlgebra, factory: EdgeFactory,
                              n_core: int = 3, n_rr: int = 4,
                              clients_per_rr: int = 3, redundancy: int = 2,
                              seed: int = 0) -> Network:
    """An iBGP route-reflector overlay as a topology family.

    Motivated by *iBGP and Constrained Connectivity*: the signalling
    graph of a reflector deployment is itself a routing topology.
    Layout — a full mesh of ``n_core`` top-level reflectors, ``n_rr``
    second-level reflectors each homed to ``redundancy`` core
    reflectors, and ``clients_per_rr`` clients per second-level
    reflector, each homed to ``redundancy`` reflectors (its own plus
    randomly drawn backups).  Node ids: cores, then reflectors, then
    clients.  Algebra-agnostic: sessions become edges through
    ``factory`` exactly as every other family.
    """
    if n_core < 1 or n_rr < 1 or clients_per_rr < 0:
        raise ValueError("route_reflector_hierarchy needs positive tiers")
    rng = random.Random(seed)
    cores = list(range(n_core))
    rrs = list(range(n_core, n_core + n_rr))
    n = n_core + n_rr + n_rr * clients_per_rr
    pairs: List[Tuple[int, int]] = []
    for idx, a in enumerate(cores):
        for b in cores[idx + 1:]:
            pairs.append((a, b))
    for rr in rrs:
        for core in rng.sample(cores, min(redundancy, n_core)):
            pairs.append((rr, core))
    client = n_core + n_rr
    for rr in rrs:
        for _ in range(clients_per_rr):
            homes = {rr}
            backups = [x for x in rrs if x != rr]
            while len(homes) < min(redundancy, n_rr) and backups:
                homes.add(backups.pop(rng.randrange(len(backups))))
            for home in sorted(homes):
                pairs.append((client, home))
            client += 1
    return build_network(algebra, n, _both_ways(pairs), factory, seed,
                         name=f"rr-{n_core}-{n_rr}-{clients_per_rr}")


def ibgp_gao_rexford(n_core: int = 3, n_rr: int = 4, clients_per_rr: int = 3,
                     redundancy: int = 2, seed: int = 0):
    """A route-reflector overlay over the Gao–Rexford algebra.

    Same layout as :func:`route_reflector_hierarchy`, with economics
    mapped onto the hierarchy: core reflectors peer, and every
    reflector/client is a customer of the level above it.  Returns
    ``(network, relationships)`` exactly as
    :func:`gao_rexford_hierarchy` does.
    """
    from ..algebras.gao_rexford import GaoRexfordAlgebra, Rel

    rng = random.Random(seed)
    cores = list(range(n_core))
    rrs = list(range(n_core, n_core + n_rr))
    n = n_core + n_rr + n_rr * clients_per_rr
    algebra = GaoRexfordAlgebra(n_nodes=n)
    net = Network(algebra, n, name=f"ibgp-gr-{n_core}-{n_rr}-{clients_per_rr}")
    rels = {}

    def connect(customer: int, provider: int) -> None:
        rels[(customer, provider)] = Rel.PROVIDER
        rels[(provider, customer)] = Rel.CUSTOMER
        net.set_edge(customer, provider,
                     algebra.edge(customer, provider, Rel.PROVIDER))
        net.set_edge(provider, customer,
                     algebra.edge(provider, customer, Rel.CUSTOMER))

    def peer(a: int, b: int) -> None:
        rels[(a, b)] = Rel.PEER
        rels[(b, a)] = Rel.PEER
        net.set_edge(a, b, algebra.edge(a, b, Rel.PEER))
        net.set_edge(b, a, algebra.edge(b, a, Rel.PEER))

    for idx, a in enumerate(cores):
        for b in cores[idx + 1:]:
            peer(a, b)
    for rr in rrs:
        for core in rng.sample(cores, min(redundancy, n_core)):
            connect(rr, core)
    client = n_core + n_rr
    for rr in rrs:
        for _ in range(clients_per_rr):
            homes = {rr}
            backups = [x for x in rrs if x != rr]
            while len(homes) < min(redundancy, n_rr) and backups:
                homes.add(backups.pop(rng.randrange(len(backups))))
            for home in sorted(homes):
                connect(client, home)
            client += 1
    return net, rels


# ----------------------------------------------------------------------
# Standard factories for the shipped algebras
# ----------------------------------------------------------------------


def uniform_weight_factory(algebra, lo: int = 1, hi: int = 5) -> EdgeFactory:
    """Edges via ``algebra.edge(w)`` with w ~ U{lo..hi} (numeric algebras)."""
    def factory(rng: random.Random, _i: int, _j: int) -> EdgeFunction:
        return algebra.edge(rng.randint(lo, hi))

    return factory


def lifted_weight_factory(path_algebra, lo: int = 1, hi: int = 5) -> EdgeFactory:
    """Edges for :class:`~repro.algebras.add_paths.AddPaths` networks:
    lift a random base weight onto each located edge."""
    def factory(rng: random.Random, i: int, j: int) -> EdgeFunction:
        return path_algebra.edge(i, j, path_algebra.base.edge(rng.randint(lo, hi)))

    return factory


def bgp_policy_factory(bgp_algebra, allow_reject: bool = True,
                       depth: int = 3) -> EdgeFactory:
    """Random safe BGPLite policies on every edge (Section 7 workloads)."""
    from ..algebras.bgplite import random_policy

    def factory(rng: random.Random, i: int, j: int) -> EdgeFunction:
        pol = random_policy(rng, bgp_algebra.community_universe,
                            bgp_algebra.n_nodes, depth=depth,
                            allow_reject=allow_reject)
        return bgp_algebra.edge(i, j, pol)

    return factory
