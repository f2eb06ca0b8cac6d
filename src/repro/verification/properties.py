"""Executable algebra laws — Table 1 as code.

The paper's Agda development *proves* these laws once and for all; in
Python we *check* them, exhaustively over finite carriers and by
randomised sampling over infinite ones.  Each checker returns a
:class:`LawCheck` carrying a verdict, the number of cases examined and
a counterexample when the law fails — the moral equivalent of the
type-checker rejecting an ill-formed algebra.

Two law groups, exactly as Table 1 draws them:

*required* (any routing algebra)
    ⊕ associative, ⊕ commutative, ⊕ selective, 0̄ annihilates ⊕,
    ∞̄ is the identity of ⊕, ∞̄ is a fixed point of every f ∈ F;

*optional* (the convergence-relevant hierarchy)
    F increasing, F strictly increasing, F distributive over ⊕.

Path algebras additionally get P1–P3 (Definition 14) via
:func:`check_path_laws`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.algebra import EdgeFunction, PathAlgebra, Route, RoutingAlgebra
from ..core.paths import BOTTOM, can_extend, extend, is_simple


@dataclass
class LawCheck:
    """Verdict for one law."""

    law: str
    holds: bool
    cases: int
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds

    def describe(self) -> str:
        mark = "✓" if self.holds else "✗"
        extra = ""
        if not self.holds and self.counterexample is not None:
            extra = f"  counterexample: {self.counterexample!r}"
        return f"{mark} {self.law} ({self.cases} cases){extra}"


def _route_universe(algebra: RoutingAlgebra, rng: random.Random,
                    samples: int) -> List[Route]:
    """Exhaustive carrier for finite algebras, else a random sample.

    Always includes 0̄ and ∞̄ — most law violations hide at the
    distinguished elements.
    """
    if algebra.is_finite:
        return list(algebra.routes())
    universe = [algebra.trivial, algebra.invalid]
    for _ in range(samples):
        universe.append(algebra.sample_route(rng))
    return universe


def _edge_universe(algebra: RoutingAlgebra, rng: random.Random,
                   count: int,
                   edge_functions: Optional[Sequence[EdgeFunction]] = None
                   ) -> List[EdgeFunction]:
    if edge_functions is not None:
        return list(edge_functions)
    return [algebra.sample_edge_function(rng) for _ in range(count)]


# ----------------------------------------------------------------------
# Required laws
# ----------------------------------------------------------------------


def check_associative(algebra: RoutingAlgebra,
                      routes: Sequence[Route]) -> LawCheck:
    """``a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ c``."""
    out = LawCheck("⊕ associative", True, 0)
    for a, b, c in itertools.product(routes, repeat=3):
        out.cases += 1
        lhs = algebra.choice(a, algebra.choice(b, c))
        rhs = algebra.choice(algebra.choice(a, b), c)
        if not algebra.equal(lhs, rhs):
            out.holds, out.counterexample = False, (a, b, c)
            break
    return out


def check_commutative(algebra: RoutingAlgebra,
                      routes: Sequence[Route]) -> LawCheck:
    """``a ⊕ b = b ⊕ a``."""
    out = LawCheck("⊕ commutative", True, 0)
    for a, b in itertools.product(routes, repeat=2):
        out.cases += 1
        if not algebra.equal(algebra.choice(a, b), algebra.choice(b, a)):
            out.holds, out.counterexample = False, (a, b)
            break
    return out


def check_selective(algebra: RoutingAlgebra,
                    routes: Sequence[Route]) -> LawCheck:
    """``a ⊕ b ∈ {a, b}``."""
    out = LawCheck("⊕ selective", True, 0)
    for a, b in itertools.product(routes, repeat=2):
        out.cases += 1
        c = algebra.choice(a, b)
        if not (algebra.equal(c, a) or algebra.equal(c, b)):
            out.holds, out.counterexample = False, (a, b, c)
            break
    return out


def check_trivial_annihilator(algebra: RoutingAlgebra,
                              routes: Sequence[Route]) -> LawCheck:
    """``a ⊕ 0̄ = 0̄ = 0̄ ⊕ a``."""
    out = LawCheck("0̄ annihilates ⊕", True, 0)
    zero = algebra.trivial
    for a in routes:
        out.cases += 1
        if not (algebra.equal(algebra.choice(a, zero), zero)
                and algebra.equal(algebra.choice(zero, a), zero)):
            out.holds, out.counterexample = False, (a,)
            break
    return out


def check_invalid_identity(algebra: RoutingAlgebra,
                           routes: Sequence[Route]) -> LawCheck:
    """``a ⊕ ∞̄ = a = ∞̄ ⊕ a``."""
    out = LawCheck("∞̄ is identity of ⊕", True, 0)
    inf = algebra.invalid
    for a in routes:
        out.cases += 1
        if not (algebra.equal(algebra.choice(a, inf), a)
                and algebra.equal(algebra.choice(inf, a), a)):
            out.holds, out.counterexample = False, (a,)
            break
    return out


def check_invalid_fixed_point(algebra: RoutingAlgebra,
                              edges: Sequence[EdgeFunction]) -> LawCheck:
    """``f(∞̄) = ∞̄`` for every sampled f."""
    out = LawCheck("∞̄ fixed point of F", True, 0)
    for f in edges:
        out.cases += 1
        if not algebra.equal(f(algebra.invalid), algebra.invalid):
            out.holds, out.counterexample = False, (f, f(algebra.invalid))
            break
    return out


# ----------------------------------------------------------------------
# Optional laws (the convergence hierarchy)
# ----------------------------------------------------------------------


def check_increasing(algebra: RoutingAlgebra, routes: Sequence[Route],
                     edges: Sequence[EdgeFunction]) -> LawCheck:
    """Definition 2: ``a ≤ f(a)`` for all a, f."""
    out = LawCheck("F increasing", True, 0)
    for f in edges:
        for a in routes:
            out.cases += 1
            if not algebra.leq(a, f(a)):
                out.holds, out.counterexample = False, (f, a, f(a))
                return out
    return out


def check_strictly_increasing(algebra: RoutingAlgebra, routes: Sequence[Route],
                              edges: Sequence[EdgeFunction]) -> LawCheck:
    """Definition 3: ``a < f(a)`` for all a ≠ ∞̄, f."""
    out = LawCheck("F strictly increasing", True, 0)
    for f in edges:
        for a in routes:
            if algebra.equal(a, algebra.invalid):
                continue
            out.cases += 1
            if not algebra.lt(a, f(a)):
                out.holds, out.counterexample = False, (f, a, f(a))
                return out
    return out


def check_distributive(algebra: RoutingAlgebra, routes: Sequence[Route],
                       edges: Sequence[EdgeFunction]) -> LawCheck:
    """Eq. 1: ``f(a ⊕ b) = f(a) ⊕ f(b)`` — the *classical* assumption.

    Policy-rich algebras are exactly those for which this check FAILS;
    the Table 1 bench prints the failing triple as the paper's Eq. 2
    worked example does.
    """
    out = LawCheck("F distributes over ⊕", True, 0)
    for f in edges:
        for a, b in itertools.product(routes, repeat=2):
            out.cases += 1
            lhs = f(algebra.choice(a, b))
            rhs = algebra.choice(f(a), f(b))
            if not algebra.equal(lhs, rhs):
                out.holds, out.counterexample = False, (f, a, b, lhs, rhs)
                return out
    return out


# ----------------------------------------------------------------------
# Path-algebra laws (Definition 14)
# ----------------------------------------------------------------------


def check_path_laws(algebra: PathAlgebra, routes: Sequence[Route],
                    edge_pairs: Sequence[Tuple[int, int, EdgeFunction]]
                    ) -> List[LawCheck]:
    """P1–P3 plus simplicity of every projected path.

    ``edge_pairs`` are ``(i, j, A_ij)`` triples — P3 relates the path of
    an extended route to the extending edge, so the checker must know
    which edge each function represents.
    """
    p1 = LawCheck("P1: x = ∞̄ ⇔ path(x) = ⊥", True, 0)
    p2 = LawCheck("P2: x = 0̄ ⇒ path(x) = []", True, 0)
    simple = LawCheck("path(x) is always simple", True, 0)
    for x in routes:
        p1.cases += 1
        if (algebra.equal(x, algebra.invalid)) != (algebra.path(x) is BOTTOM):
            p1.holds, p1.counterexample = False, (x, algebra.path(x))
        p2.cases += 1
        if algebra.equal(x, algebra.trivial) and algebra.path(x) != ():
            p2.holds, p2.counterexample = False, (x, algebra.path(x))
        simple.cases += 1
        if not is_simple(algebra.path(x)):
            simple.holds, simple.counterexample = False, (x, algebra.path(x))

    p3 = LawCheck("P3: path(A_ij(r)) follows the extension rule", True, 0)
    for (i, j, f) in edge_pairs:
        for r in routes:
            if algebra.equal(r, algebra.invalid):
                continue
            p3.cases += 1
            p = algebra.path(r)
            result = f(r)
            result_path = algebra.path(result)
            if p is BOTTOM:
                continue  # covered by P1
            if i in p or not can_extend(i, j, p):
                expected = BOTTOM
            else:
                expected = extend(i, j, p)
            # A policy may additionally *filter* the route (result ⊥ even
            # when the extension was admissible); that is allowed — what
            # P3 forbids is producing a path other than the extension.
            if result_path is not BOTTOM and result_path != expected:
                p3.holds, p3.counterexample = False, (i, j, r, result_path)
            if expected is BOTTOM and result_path is not BOTTOM:
                p3.holds, p3.counterexample = False, (i, j, r, result_path)
    return [p1, p2, simple, p3]


# ----------------------------------------------------------------------
# Whole-algebra reports
# ----------------------------------------------------------------------


@dataclass
class AlgebraReport:
    """Full Table 1 verdict for one algebra."""

    algebra_name: str
    checks: List[LawCheck] = field(default_factory=list)

    def check(self, law: str) -> LawCheck:
        for c in self.checks:
            if c.law == law:
                return c
        raise KeyError(law)

    def holds(self, law: str) -> bool:
        return self.check(law).holds

    @property
    def is_routing_algebra(self) -> bool:
        """All five required laws (plus ∞̄-fixed-point) hold."""
        required = ["⊕ associative", "⊕ commutative", "⊕ selective",
                    "0̄ annihilates ⊕", "∞̄ is identity of ⊕",
                    "∞̄ fixed point of F"]
        return all(self.holds(law) for law in required)

    @property
    def is_increasing(self) -> bool:
        return self.holds("F increasing")

    @property
    def is_strictly_increasing(self) -> bool:
        return self.holds("F strictly increasing")

    @property
    def is_distributive(self) -> bool:
        return self.holds("F distributes over ⊕")

    def table(self) -> str:
        lines = [f"algebra: {self.algebra_name}"]
        lines.extend("  " + c.describe() for c in self.checks)
        return "\n".join(lines)


def verify_algebra(algebra: RoutingAlgebra,
                   edge_functions: Optional[Sequence[EdgeFunction]] = None,
                   rng: Optional[random.Random] = None,
                   samples: int = 40, edge_samples: int = 12) -> AlgebraReport:
    """Run every Table 1 check against ``algebra``.

    For finite algebras the route axis is exhaustive (the associativity
    check is then a complete |S|³ sweep, as Agda's proof obligations
    would be); infinite algebras get ``samples`` random routes plus the
    distinguished elements.
    """
    rng = rng or random.Random(0)
    routes = _route_universe(algebra, rng, samples)
    edges = _edge_universe(algebra, rng, edge_samples, edge_functions)
    report = AlgebraReport(algebra.name)
    report.checks.append(check_associative(algebra, routes))
    report.checks.append(check_commutative(algebra, routes))
    report.checks.append(check_selective(algebra, routes))
    report.checks.append(check_trivial_annihilator(algebra, routes))
    report.checks.append(check_invalid_identity(algebra, routes))
    report.checks.append(check_invalid_fixed_point(algebra, edges))
    report.checks.append(check_increasing(algebra, routes, edges))
    report.checks.append(check_strictly_increasing(algebra, routes, edges))
    report.checks.append(check_distributive(algebra, routes, edges))
    return report


def verify_path_algebra(algebra: PathAlgebra,
                        edge_pairs: Sequence[Tuple[int, int, EdgeFunction]],
                        rng: Optional[random.Random] = None,
                        samples: int = 40) -> AlgebraReport:
    """Table 1 checks plus P1–P3 for a path algebra.

    ``edge_pairs`` supplies located edge functions ``(i, j, A_ij)``.
    """
    rng = rng or random.Random(0)
    bare_edges = [f for (_i, _j, f) in edge_pairs]
    report = verify_algebra(algebra, bare_edges, rng, samples=samples)
    routes = _route_universe(algebra, rng, samples)
    report.checks.extend(check_path_laws(algebra, routes, edge_pairs))
    return report
