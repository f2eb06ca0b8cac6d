"""Lexicographic product of routing algebras.

``Lexicographic(A, B)`` routes are pairs ``(a, b)``; choice compares the
``A`` component first and falls back to ``B`` on ties.  This is the
standard way multi-criteria protocols are assembled (BGP's decision
ladder is one long lexicographic product), and the combinator lets the
test-suite manufacture algebras with prescribed law profiles:

* if ``A`` and ``B`` satisfy the five required laws, so does the
  product (checked, not assumed);
* the product is strictly increasing when ``A`` is strictly increasing,
  or when ``A`` is increasing and ``B`` is strictly increasing —
  the ablation bench uses both constructions;
* distributivity is usually *destroyed* by lexicographic composition
  even when both factors are distributive (the classic
  shortest-widest example), which is exactly the "policy-rich" regime
  the paper targets.
"""

from __future__ import annotations

from typing import Iterator

from ..core.algebra import EdgeFunction, Route, RoutingAlgebra


class PairEdge(EdgeFunction):
    """Componentwise application: ``(f × g)(a, b) = (f(a), g(b))``."""

    def __init__(self, first: EdgeFunction, second: EdgeFunction):
        self.first = first
        self.second = second

    def __call__(self, route: Route) -> Route:
        a, b = route
        return (self.first(a), self.second(b))

    def __repr__(self) -> str:
        return f"PairEdge({self.first!r}, {self.second!r})"


class LexicographicAlgebra(RoutingAlgebra):
    """The lexicographic product ``A ×ₗₑₓ B``."""

    def __init__(self, first: RoutingAlgebra, second: RoutingAlgebra):
        self.first = first
        self.second = second
        self.name = f"lex({first.name}, {second.name})"
        self.is_finite = first.is_finite and second.is_finite

    @property
    def trivial(self) -> Route:
        return (self.first.trivial, self.second.trivial)

    @property
    def invalid(self) -> Route:
        return (self.first.invalid, self.second.invalid)

    def _is_invalid(self, r: Route) -> bool:
        """Invalid up to quotient: either component invalid kills the pair.

        A route that is unreachable in *one* criterion is unreachable,
        full stop — e.g. in widest-then-shortest, ``(3, ∞)`` (some
        bandwidth but infinite distance) denotes no usable path.  The
        quotient also keeps the product strictly increasing when a
        factor's edge function is the identity on its own invalid.
        """
        return (self.first.equal(r[0], self.first.invalid)
                or self.second.equal(r[1], self.second.invalid))

    def equal(self, x: Route, y: Route) -> bool:
        xi, yi = self._is_invalid(x), self._is_invalid(y)
        if xi or yi:
            return xi and yi
        return (self.first.equal(x[0], y[0])
                and self.second.equal(x[1], y[1]))

    def choice(self, x: Route, y: Route) -> Route:
        if self._is_invalid(x):
            return y
        if self._is_invalid(y):
            return x
        if self.first.lt(x[0], y[0]):
            return x
        if self.first.lt(y[0], x[0]):
            return y
        # first components tie in the A order; B decides
        if self.second.leq(x[1], y[1]):
            return x
        return y

    def routes(self) -> Iterator[Route]:
        for a in self.first.routes():
            for b in self.second.routes():
                yield (a, b)

    def sample_route(self, rng) -> Route:
        return (self.first.sample_route(rng), self.second.sample_route(rng))

    def sample_edge_function(self, rng) -> PairEdge:
        return PairEdge(self.first.sample_edge_function(rng),
                        self.second.sample_edge_function(rng))

    def edge(self, first_fn: EdgeFunction, second_fn: EdgeFunction) -> PairEdge:
        return PairEdge(first_fn, second_fn)
