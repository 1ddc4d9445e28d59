"""Brute-force decomposition enumeration: the ground-truth oracle.

A decomposition is a vertex-disjoint collection of edges and cycles.
Summing the weighted terms over all decompositions reproduces the
characteristic polynomial of the normalized Laplacian; restricting the
sum to decompositions containing a long cycle (one through all signed
vertices) reproduces the closed form used by the ring construction.

Each term is a scalar times u^j with u = t - 1 and j = n - |V(D)|, so a
sum is one rational per power of u, shifted to t once at the end (the
same convention as the exact and transfer routes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, ParameterError, ShapeError
from .graphs import WeightedGraph
from .polynomials import Polynomial
from .rationals import Rat

MAX_VERTICES = 30
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Decomposition:
    """Isolated edges plus vertex-disjoint cycles of length >= 3.

    Cycles are stored min-vertex-first with the smaller neighbor second,
    so each undirected cycle has exactly one representation.
    """

    edges: tuple  # of (u, v) with u < v
    cycles: tuple  # of vertex tuples, len >= 3

    def covered_vertices(self) -> frozenset:
        verts = {v for e in self.edges for v in e}
        verts.update(v for c in self.cycles for v in c)
        return frozenset(verts)

    def cycle_edges(self):
        for cyc in self.cycles:
            for i in range(len(cyc)):
                u, v = cyc[i], cyc[(i + 1) % len(cyc)]
                yield (u, v) if u < v else (v, u)

    def all_edges(self):
        """E(D): isolated edges plus cycle edges."""
        return list(self.edges) + list(self.cycle_edges())

    def even_cycle_count(self) -> int:
        """e(D): even cycles, isolated edges counting as 2-cycles."""
        return len(self.edges) + sum(1 for c in self.cycles if len(c) % 2 == 0)

    def long_cycle_count(self) -> int:
        """s(D): cycles of length >= 3."""
        return len(self.cycles)


def enumerate_decompositions(g: WeightedGraph, budget: int = DEFAULT_BUDGET):
    """Yield every decomposition of g exactly once, empty one included."""
    if g.n > MAX_VERTICES:
        raise BudgetError(f"n={g.n} exceeds the oracle limit of {MAX_VERTICES}")
    emitted = 0

    def cycles_from(start, path, used, covered):
        """Extend a simple path from `start` into cycles; canonical direction.

        Only undecided vertices larger than the start may appear, and
        each cycle is emitted once (second vertex smaller than last).
        """
        u = path[-1]
        for v in g.adj[u]:
            if v == start and len(path) >= 3:
                # emit once: second vertex smaller than last vertex
                if path[1] < path[-1]:
                    yield tuple(path)
            elif v > start and v not in used and v not in covered:
                used.add(v)
                path.append(v)
                yield from cycles_from(start, path, used, covered)
                path.pop()
                used.remove(v)

    def rec(v, covered):
        nonlocal emitted
        if v == g.n:
            emitted += 1
            if emitted > budget:
                raise BudgetError(f"more than {budget} decompositions")
            yield ()
            return
        if v in covered:
            yield from rec(v + 1, covered)
            return
        # v stays out of the decomposition
        yield from rec(v + 1, covered)
        # v is matched by an isolated edge
        for u in g.adj[v]:
            if u > v and u not in covered:
                covered.add(u)
                for rest in rec(v + 1, covered):
                    yield ((v, u), None, rest)
                covered.remove(u)
        # v is the minimum vertex of a cycle
        for cyc in cycles_from(v, [v], {v}, covered):
            covered.update(cyc)
            for rest in rec(v + 1, covered):
                yield (None, cyc, rest)
            covered.difference_update(cyc)

    def materialize(item):
        edges, cycles = [], []
        while item != ():
            edge, cyc, item = item
            if edge is not None:
                edges.append(edge)
            if cyc is not None:
                cycles.append(cyc)
        return Decomposition(tuple(sorted(edges)), tuple(sorted(cycles)))

    for item in rec(0, set()):
        yield materialize(item)


def decomposition_term(d: Decomposition, g: WeightedGraph) -> tuple:
    """One summand (-1)^e 2^s u^j * weights / degrees, as the pair (j, scalar).

    u = t - 1 and j = n - |V(D)|.
    """
    covered = d.covered_vertices()
    scalar = Rat((-1) ** d.even_cycle_count() * 2 ** d.long_cycle_count())
    for (u, v) in d.all_edges():
        scalar *= g.weight(u, v)
    for (u, v) in d.edges:  # isolated edges use their edge twice
        scalar *= g.weight(u, v)
    for v in covered:
        scalar /= g.degrees[v]
    return g.n - len(covered), scalar


def _sum_terms(terms, n: int) -> Polynomial:
    """Sum (j, scalar) terms by power of u, then shift to t once."""
    coeffs = [Rat(0)] * (n + 1)
    for j, scalar in terms:
        coeffs[j] += scalar
    return Polynomial.from_u_coefficients(coeffs)


def charpoly_via_decompositions(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> Polynomial:
    """Sum of decomposition terms; equals the exact characteristic polynomial."""
    terms = (decomposition_term(d, g) for d in enumerate_decompositions(g, budget))
    return _sum_terms(terms, g.n)


# ---------------------------------------------------------------------------
# long-cycle classification for ring graphs


@dataclass(frozen=True)
class LongCycleClass:
    """Whether a decomposition has a long cycle, and its C-module profile."""

    is_long: bool
    # per C-module tag: "signed-only" | "signed+unsigned-edge" | "through-all"
    c_tags: tuple = ()
    h: int = 0
    i: int = 0
    j: int = 0


def classify_long(d: Decomposition, g: WeightedGraph) -> LongCycleClass:
    """Classify d relative to the ring structure of g (needs ring metadata)."""
    if g.signed is None:
        raise ShapeError("graph does not carry ring metadata")
    signed = set(g.signed)
    long_cycle = None
    for cyc in d.cycles:
        if signed <= set(cyc):
            long_cycle = set(cyc)
            break
    if long_cycle is None:
        return LongCycleClass(False)

    covered = d.covered_vertices()
    isolated = set(d.edges)
    tags = []
    h = i = j = 0
    for idx, letter in enumerate(g.word):
        pair = g.unsigned[idx]
        if letter in "PE":
            # forced configuration: unsigned vertices (if any) untouched
            if pair is not None and (pair[0] in covered or pair[1] in covered):
                raise ShapeError(
                    f"long decomposition uses unsigned vertices of {letter} module {idx}"
                )
            continue
        a, b = pair
        key = (a, b) if a < b else (b, a)
        if a in long_cycle and b in long_cycle:
            tags.append("through-all")
            j += 1
        elif key in isolated:
            tags.append("signed+unsigned-edge")
            i += 1
        elif a not in covered and b not in covered:
            tags.append("signed-only")
            h += 1
        else:
            raise ShapeError(
                f"unexpected configuration at C module {idx} in a long decomposition"
            )
    return LongCycleClass(True, tuple(tags), h, i, j)


def long_part_bruteforce(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> Polynomial:
    """Sum of terms over decompositions containing a long cycle."""
    return sum(long_terms_by_config(g, budget).values(), Polynomial())


def long_terms_by_config(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> dict:
    """Long-cycle terms grouped by the (h, i, j) C-module profile."""
    grouped: dict = {}
    for d in enumerate_decompositions(g, budget):
        cls = classify_long(d, g)
        if cls.is_long:
            grouped.setdefault((cls.h, cls.i, cls.j), []).append(decomposition_term(d, g))
    return {key: _sum_terms(terms, g.n) for key, terms in grouped.items()}


def long_cycle_closed_form(tau: int, ell: int, m: int, k) -> Polynomial:
    """Closed form of the long-cycle part for a ring with counts (tau, ell, m)."""
    k = Rat(k)
    if tau < 3 or ell < 0 or m < 0 or ell + m > tau:
        raise ParameterError(f"invalid counts tau={tau}, ell={ell}, m={m}")
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    scalar = Rat((-1) ** (tau - 1)) / (Rat(2) ** (tau - 1) * (k + 1) ** (m + ell))
    return Polynomial.t_minus_one_power(2 * (m + ell)).scale(scalar)


def long_cycle_multinomial_term(tau: int, ell: int, m: int, k, h: int, i: int, j: int) -> Polynomial:
    """The pre-collapse summand for a fixed split (h, i, j) of the C modules."""
    if h + i + j != m:
        raise ParameterError(f"h+i+j must equal m, got {(h, i, j)} vs m={m}")
    k = Rat(k)
    prefix = (
        Rat(2)
        * Rat((-1) ** (tau - 1))
        * (k + 1) ** (tau - ell - m)
        / (Rat(2) * (k + 1)) ** tau
    )
    count = Rat(math.factorial(m)) / (
        math.factorial(h) * math.factorial(i) * math.factorial(j)
    )
    kk = k ** 4 / (k * (k + 1)) ** 2
    scalar = prefix * count * (-kk) ** i * kk ** j
    return Polynomial.t_minus_one_power(2 * ell + 2 * h).scale(scalar)
