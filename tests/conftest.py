"""Shared fixtures and small-network builders for the test suite."""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.algebras import (
    AddPaths,
    BGPLiteAlgebra,
    FiniteLevelAlgebra,
    HopCountAlgebra,
    ShortestPathsAlgebra,
    WidestPathsAlgebra,
)
from repro.core import LADDER, Network


def pytest_addoption(parser):
    parser.addoption(
        "--engine", action="store", default="all",
        choices=("all",) + LADDER,
        help="restrict tests using the `engine` fixture to one engine "
             "(default: parametrise over all engines)")


def pytest_generate_tests(metafunc):
    """Parametrise the ``engine`` fixture from ``--engine``.

    Tier-1 runs the whole engine matrix at small sizes; CI shards can
    pass ``--engine=vectorized`` (etc.) to split the matrix, and
    ``-m slow`` scales the oracle suite's sizes up.
    """
    if "engine" in metafunc.fixturenames:
        chosen = metafunc.config.getoption("--engine")
        engines = LADDER if chosen == "all" else (chosen,)
        metafunc.parametrize("engine", engines)


@pytest.fixture(autouse=True)
def _no_leaked_children():
    """Fail a test that ends with a new live child process (an engine's
    pool worker, a loopback server): the process analogue of
    pytest.ini's error on leaked handles."""
    before = {p.pid for p in multiprocessing.active_children()}
    yield
    leaked = [p for p in multiprocessing.active_children()
              if p.pid not in before]
    if leaked:
        pytest.fail("test left live child process(es): " + ", ".join(
            f"{p.name} (pid {p.pid})" for p in leaked), pytrace=False)


@pytest.fixture
def rng():
    return random.Random(12345)


def hop_net(n: int = 4, bound: int = 16, weight: int = 1,
            arcs=None) -> Network:
    """A hop-count network on a ring (or explicit arcs)."""
    alg = HopCountAlgebra(bound)
    net = Network(alg, n, name=f"hop-ring-{n}")
    if arcs is None:
        arcs = [(i, (i + 1) % n) for i in range(n)]
        arcs += [((i + 1) % n, i) for i in range(n)]
    for (i, j) in arcs:
        net.set_edge(i, j, alg.edge(weight))
    return net


def finite_net(n: int = 4, levels: int = 8, seed: int = 0) -> Network:
    """A finite-chain-algebra network with random strict tables on a ring."""
    alg = FiniteLevelAlgebra(levels)
    r = random.Random(seed)
    net = Network(alg, n, name=f"finite-ring-{n}")
    for i in range(n):
        for j in ((i + 1) % n, (i - 1) % n):
            net.set_edge(i, j, alg.random_strict_edge(r))
    return net


def shortest_pv_net(n: int = 4, seed: int = 0) -> Network:
    """AddPaths(shortest-paths) on a ring with random weights."""
    base = ShortestPathsAlgebra()
    alg = AddPaths(base, n_nodes=n)
    r = random.Random(seed)
    net = Network(alg, n, name=f"sp-pv-ring-{n}")
    for i in range(n):
        for j in ((i + 1) % n, (i - 1) % n):
            net.set_edge(i, j, alg.edge(i, j, base.edge(r.randint(1, 4))))
    return net


def bgp_net(n: int = 4, seed: int = 0, allow_reject: bool = False) -> Network:
    """BGPLite on a ring with random safe policies."""
    from repro.algebras.bgplite import random_policy

    alg = BGPLiteAlgebra(n_nodes=n)
    r = random.Random(seed)
    net = Network(alg, n, name=f"bgp-ring-{n}")
    for i in range(n):
        for j in ((i + 1) % n, (i - 1) % n):
            pol = random_policy(r, alg.community_universe, n,
                                allow_reject=allow_reject)
            net.set_edge(i, j, alg.edge(i, j, pol))
    return net


class ExtensionCounter:
    """Counts edge-function calls: the cost unit of the object engines.

    ``install(net)`` replaces every installed edge function by a
    counting wrapper (do it before the first solve: each wrap is a
    write); ``wrap(fn)`` wraps one function to install later; ``take()``
    returns the calls since the last ``take`` and resets the count.
    """

    def __init__(self):
        self.calls = 0

    def wrap(self, fn):
        def counted(route):
            self.calls += 1
            return fn(route)
        return counted

    def install(self, net: Network) -> "ExtensionCounter":
        for i, k in list(net.present_edges()):
            net.set_edge(i, k, self.wrap(net.edge(i, k)))
        return self

    def take(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


@pytest.fixture
def extensions():
    return ExtensionCounter()
