"""Topology generators: shape, symmetry, factory plumbing."""

import pytest

from repro.algebras import (
    AddPaths,
    BGPLiteAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
)
from repro.core import synchronous_fixed_point
from repro.session import RoutingSession
from repro.topologies import (
    barabasi_albert,
    bgp_policy_factory,
    build_network,
    complete,
    erdos_renyi,
    fat_tree,
    gao_rexford_hierarchy,
    grid,
    lifted_weight_factory,
    line,
    ring,
    star,
    uniform_weight_factory,
)


def hop_factory():
    return uniform_weight_factory(HopCountAlgebra(16), 1, 3)


class TestDeterministicFamilies:
    def test_line_edges(self):
        net = line(HopCountAlgebra(16), 5, hop_factory())
        edges = set(net.present_edges())
        assert (0, 1) in edges and (1, 0) in edges
        assert (4, 3) in edges
        assert (0, 4) not in edges
        assert len(edges) == 2 * 4

    def test_ring_edges(self):
        net = ring(HopCountAlgebra(16), 5, hop_factory())
        edges = set(net.present_edges())
        assert (4, 0) in edges and (0, 4) in edges
        assert len(edges) == 2 * 5

    def test_star_edges(self):
        net = star(HopCountAlgebra(16), 5, hop_factory())
        edges = set(net.present_edges())
        assert all((0, i) in edges and (i, 0) in edges for i in range(1, 5))
        assert (1, 2) not in edges

    def test_complete_edges(self):
        net = complete(HopCountAlgebra(16), 4, hop_factory())
        assert len(set(net.present_edges())) == 4 * 3

    def test_grid_shape(self):
        net = grid(HopCountAlgebra(16), 2, 3, hop_factory())
        assert net.n == 6
        edges = set(net.present_edges())
        assert (0, 1) in edges          # same row
        assert (0, 3) in edges          # same column
        assert (0, 4) not in edges      # diagonal


class TestRandomFamilies:
    def test_erdos_renyi_connected(self):
        net = erdos_renyi(HopCountAlgebra(16), 12, 0.15, hop_factory(),
                          seed=5)
        fp = synchronous_fixed_point(net)
        alg = net.algebra
        # connectivity patch: every pair reachable
        for i in range(12):
            for j in range(12):
                assert fp.get(i, j) != alg.invalid

    def test_erdos_renyi_deterministic_in_seed(self):
        a = erdos_renyi(HopCountAlgebra(16), 10, 0.3, hop_factory(), seed=7)
        b = erdos_renyi(HopCountAlgebra(16), 10, 0.3, hop_factory(), seed=7)
        assert set(a.present_edges()) == set(b.present_edges())

    def test_barabasi_albert_shape(self):
        net = barabasi_albert(HopCountAlgebra(16), 15, 2, hop_factory(),
                              seed=3)
        assert net.n == 15
        assert len(set(net.present_edges())) == 2 * (2 * 13)   # nx BA: m*(n-m) edges


class TestFatTree:
    def test_k4_shape(self):
        net = fat_tree(HopCountAlgebra(16), 4, hop_factory())
        # (k/2)^2 = 4 cores + k pods * k switches = 4 + 16 = 20
        assert net.n == 20

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            fat_tree(HopCountAlgebra(16), 3, hop_factory())

    def test_all_pairs_reachable(self):
        net = fat_tree(HopCountAlgebra(16), 4, hop_factory())
        fp = synchronous_fixed_point(net)
        for i in range(net.n):
            for j in range(net.n):
                assert fp.get(i, j) != net.algebra.invalid


class TestGaoRexfordHierarchy:
    def test_shape_and_convergence(self):
        net, rels = gao_rexford_hierarchy(2, 3, 6, seed=2)
        assert net.n == 11
        res = RoutingSession(net, "incremental").sigma()
        assert res.converged

    def test_tier1_full_peer_mesh(self):
        from repro.algebras import Rel

        _net, rels = gao_rexford_hierarchy(3, 2, 2, seed=1)
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert rels[(a, b)] == Rel.PEER

    def test_every_lower_tier_node_has_a_provider(self):
        from repro.algebras import Rel

        _net, rels = gao_rexford_hierarchy(2, 4, 8, seed=3)
        for node in range(2, 14):
            assert any(rel == Rel.PROVIDER and i == node
                       for (i, _j), rel in rels.items())


class TestFactories:
    def test_lifted_factory_builds_path_edges(self):
        base = ShortestPathsAlgebra()
        alg = AddPaths(base, n_nodes=4)
        net = ring(alg, 4, lifted_weight_factory(alg))
        fp = synchronous_fixed_point(net)
        route = fp.get(0, 2)
        assert route[1][-1] == 2 and route[1][0] == 0

    def test_bgp_factory_builds_policies(self):
        alg = BGPLiteAlgebra(n_nodes=4)
        net = ring(alg, 4, bgp_policy_factory(alg, allow_reject=False))
        fp = synchronous_fixed_point(net)
        assert fp.get(0, 1) is not alg.invalid

    def test_build_network_seed_reproducible(self):
        alg = HopCountAlgebra(16)
        arcs = [(0, 1), (1, 0)]
        a = build_network(alg, 2, arcs, uniform_weight_factory(alg, 1, 9),
                          seed=4)
        b = build_network(alg, 2, arcs, uniform_weight_factory(alg, 1, 9),
                          seed=4)
        assert a.edge(0, 1)(0) == b.edge(0, 1)(0)


class TestSeedDeterminism:
    """Same seed ⇒ identical adjacency, within and across processes."""

    CASES = ("erdos_renyi", "barabasi_albert", "gao_rexford_hierarchy")

    # one shared snippet: build the generator's network at a fixed seed
    # and digest its sorted arc list (structure only — edge functions
    # are closures and can't be hashed portably)
    SNIPPET = """
import hashlib
from repro.algebras import HopCountAlgebra
from repro.topologies import (barabasi_albert, erdos_renyi,
                              gao_rexford_hierarchy,
                              uniform_weight_factory)

def build(name):
    alg = HopCountAlgebra(16)
    fac = uniform_weight_factory(alg, 1, 3)
    if name == "erdos_renyi":
        return erdos_renyi(alg, 14, 0.3, fac, seed=11)
    if name == "barabasi_albert":
        return barabasi_albert(alg, 14, 2, fac, seed=11)
    net, _rels = gao_rexford_hierarchy(2, 4, 8, seed=11)
    return net

def digest(name):
    arcs = sorted(build(name).present_edges())
    return hashlib.sha256(repr(arcs).encode()).hexdigest()
"""

    def _local_digest(self, name):
        scope = {}
        exec(self.SNIPPET, scope)
        return scope["digest"](name)

    @pytest.mark.parametrize("name", CASES)
    def test_same_seed_same_adjacency_in_process(self, name):
        assert self._local_digest(name) == self._local_digest(name)

    @pytest.mark.parametrize("name", CASES)
    def test_same_seed_same_adjacency_across_processes(self, name):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c",
             self.SNIPPET + f"\nprint(digest({name!r}))"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == self._local_digest(name)


class TestElmokashfiASGraph:
    def test_shape_and_connectivity(self):
        from repro.topologies import elmokashfi_as_graph

        net = elmokashfi_as_graph(HopCountAlgebra(16), 24, hop_factory(),
                                  seed=2)
        assert net.n == 24 and net.name == "elmokashfi-24"
        arcs = set(net.present_edges())
        assert all((k, i) in arcs for (i, k) in arcs)
        fp = synchronous_fixed_point(net)
        for i in range(24):
            for j in range(24):
                assert fp.get(i, j) != net.algebra.invalid

    def test_tier1_clique(self):
        from repro.topologies import elmokashfi_as_graph

        net = elmokashfi_as_graph(HopCountAlgebra(16), 30, hop_factory(),
                                  seed=0)
        arcs = set(net.present_edges())
        # tier-1 core (max(3, 1% of n) = 3 nodes) is a full mesh
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert (a, b) in arcs

    def test_too_small_rejected(self):
        from repro.topologies import elmokashfi_as_graph

        with pytest.raises(ValueError):
            elmokashfi_as_graph(HopCountAlgebra(16), 4, hop_factory())

    def test_deterministic_in_seed(self):
        from repro.topologies import elmokashfi_as_graph

        a = elmokashfi_as_graph(HopCountAlgebra(16), 20, hop_factory(),
                                seed=5)
        b = elmokashfi_as_graph(HopCountAlgebra(16), 20, hop_factory(),
                                seed=5)
        assert set(a.present_edges()) == set(b.present_edges())


class TestRouteReflectorHierarchy:
    def test_shape_and_connectivity(self):
        from repro.topologies import route_reflector_hierarchy

        net = route_reflector_hierarchy(HopCountAlgebra(16), hop_factory(),
                                        n_core=3, n_rr=4,
                                        clients_per_rr=3, seed=1)
        assert net.n == 3 + 4 + 12
        fp = synchronous_fixed_point(net)
        for i in range(net.n):
            for j in range(net.n):
                assert fp.get(i, j) != net.algebra.invalid

    def test_core_full_mesh(self):
        from repro.topologies import route_reflector_hierarchy

        net = route_reflector_hierarchy(HopCountAlgebra(16), hop_factory(),
                                        n_core=4, n_rr=2,
                                        clients_per_rr=2, seed=0)
        arcs = set(net.present_edges())
        for a in range(4):
            for b in range(4):
                if a != b:
                    assert (a, b) in arcs

    def test_ibgp_gao_rexford_converges(self):
        from repro.algebras import Rel
        from repro.topologies import ibgp_gao_rexford

        net, rels = ibgp_gao_rexford(n_core=3, n_rr=3, clients_per_rr=2,
                                     seed=2)
        assert net.n == 3 + 3 + 6
        # cores peer with each other; everything below has a provider
        assert rels[(0, 1)] == Rel.PEER
        for node in range(3, net.n):
            assert any(rel == Rel.PROVIDER and i == node
                       for (i, _j), rel in rels.items())
        res = RoutingSession(net, "incremental").sigma()
        assert res.converged
