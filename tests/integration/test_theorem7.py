"""Integration: Theorem 7 end-to-end.

Finite + strictly increasing ⇒ δ converges absolutely — checked across
algebras × topologies × starting states × schedules, plus the negative
controls that drop each hypothesis in turn.
"""

import random

import pytest

from repro.algebras import (
    FiniteLevelAlgebra,
    HopCountAlgebra,
    LexicographicAlgebra,
    QuantisedReliabilityAlgebra,
)
from repro.core import Network, RoutingState, schedule_zoo
from repro.session import RoutingSession
from repro.topologies import (
    erdos_renyi,
    line,
    ring,
    star,
    uniform_weight_factory,
)


def _networks():
    hop = HopCountAlgebra(12)
    hop_factory = uniform_weight_factory(hop, 1, 3)
    yield line(hop, 5, hop_factory, seed=0)
    yield ring(hop, 5, hop_factory, seed=1)
    yield star(hop, 5, hop_factory, seed=2)
    yield erdos_renyi(hop, 6, 0.4, hop_factory, seed=3)

    fin = FiniteLevelAlgebra(7)
    r = random.Random(4)
    net = Network(fin, 4, name="finite-chords")
    for i in range(4):
        for j in range(4):
            if i != j and r.random() < 0.7:
                net.set_edge(i, j, fin.random_strict_edge(r))
    # guarantee strong connectivity via a ring backbone
    for i in range(4):
        if not net.adjacency.has_edge(i, (i + 1) % 4):
            net.set_edge(i, (i + 1) % 4, fin.random_strict_edge(r))
    yield net

    quant = QuantisedReliabilityAlgebra(quantum=8)
    yield ring(quant, 4,
               lambda rng, _i, _j: quant.sample_edge_function(rng), seed=5)


class TestTheorem7Positive:
    @pytest.mark.parametrize("net", list(_networks()),
                             ids=lambda n: f"{n.name}/{n.algebra.name}")
    def test_absolute_convergence(self, net):
        report = RoutingSession(net, "incremental").converges(
            n_starts=3, seed=7, max_steps=2500).grid
        assert report.all_converged, "some (state, schedule) run diverged"
        assert report.absolute, (
            f"{len(report.distinct_fixed_points)} distinct fixed points "
            "reached — absolute convergence violated")


class TestTheorem7Hypotheses:
    """Drop each hypothesis; the conclusion must become falsifiable."""

    def test_drop_finiteness_count_to_infinity(self):
        """Strictly increasing but infinite: divergence from stale state."""
        from repro.topologies import count_to_infinity

        net, stale = count_to_infinity()
        res = RoutingSession(net, "incremental").delta(
            schedule_zoo(net.n)[0], stale, max_steps=200)
        assert not res.converged

    def test_drop_strictness_multiple_fixed_points(self):
        """Finite but only weakly increasing: multiple stable states
        become possible (which one you get depends on the start).

        Construction: nodes 0 and 1 exchange routes towards an
        unreachable destination 2 through a *plateau* table
        (g(2) = 2, g(3) = 3): any agreed plateau value is self-
        sustaining — the ghost-route analogue of a wedgie."""
        from repro.core import is_stable

        alg = FiniteLevelAlgebra(4)
        net = Network(alg, 3, name="plateau")
        plateau = alg.table_edge([2, 3, 2, 3, 4])
        net.set_edge(0, 1, plateau)
        net.set_edge(1, 0, plateau)

        def state(v):
            return RoutingState([[0, 2, v], [2, 0, v], [4, 4, 0]])

        fixed = [state(v) for v in (2, 3, 4)]
        for X in fixed:
            assert is_stable(net, X)
        assert not fixed[0].equals(fixed[1], alg)

    def test_drop_increasing_oscillation(self):
        from repro.algebras import bad_gadget
        from repro.analysis import sync_oscillates

        assert sync_oscillates(bad_gadget())


class TestConvergenceStepsAreBounded:
    def test_async_steps_recorded_and_finite(self):
        net = ring(HopCountAlgebra(8), 4,
                   uniform_weight_factory(HopCountAlgebra(8), 1, 2), seed=9)
        report = RoutingSession(net, "incremental").converges(
            n_starts=2, seed=11, max_steps=2500).grid
        assert report.absolute
        assert 0 < report.mean_steps <= report.max_steps < 2500
