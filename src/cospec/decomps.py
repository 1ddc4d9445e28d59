"""Brute-force decomposition enumeration: the ground-truth oracle.

A decomposition is a vertex-disjoint collection of edges and cycles.
Summing the weighted terms over all decompositions reproduces the
characteristic polynomial of the normalized Laplacian; restricting the
sum to decompositions containing a long cycle (one through all signed
vertices) reproduces the closed form used by the ring construction.

The term of D is (-1)^e 2^s u^j prod_{E(D)} w / prod_{V(D)} d with
u = t - 1 and j = n - |V(D)| (isolated edges count twice in the weight
product).  It has as many weight factors as degree factors, |V(D)| each,
so scaling every weight and degree by L, the least common multiple of
the weight denominators, leaves it unchanged.  Over the common
denominator P = prod_v D_v of the scaled degrees D_v = L d_v, the term
is x / P with the integer x = (-1)^e 2^s prod W prod_{v not in V(D)} D_v
and W = L w.  One recursive walk enumerates the decompositions and builds x
as it descends; a sum is one integer per power of u, divided by P once
per coefficient and shifted to t once at the end (the same convention as
the exact and transfer routes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, ParameterError, ShapeError
from .graphs import WeightedGraph
from .polynomials import Polynomial, lowest_terms
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


def _scale(g: WeightedGraph) -> tuple:
    """The graph's integer neighbour lists [(u, W_uv)] and degrees D_v, scaled by L.

    L is the least common multiple of the weight denominators.  A vertex of
    degree 0 is never covered, so its factor cancels; D_v = 1 keeps P nonzero.
    """
    nbrs = [[] for _ in range(g.n)]
    for (u, v), w in g.scaled_weights.items():  # edge order, as in g.adj
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    return nbrs, [d or 1 for d in g.scaled_degrees]


def _walk(g: WeightedGraph, budget: int, leaf) -> int:
    """Call leaf(j, x, parts) once per decomposition D; return P = prod D_v.

    j = n - |V(D)| and x / P is the term of D.  `parts` is the walk's stack:
    (u, v) for an isolated edge, a vertex tuple of length >= 3 for a cycle.
    The leaf may read it but must not keep it.
    """
    n = g.n
    if n > MAX_VERTICES:
        raise BudgetError(f"n={n} exceeds the oracle limit of {MAX_VERTICES}")
    nbrs, degree = _scale(g)
    covered = [False] * n
    parts = []
    emitted = 0

    def rec(v, j, x):
        """Decide the vertices from v on; x carries the decided factors."""
        nonlocal emitted
        while v < n and covered[v]:
            v += 1
        if v == n:
            emitted += 1
            if emitted > budget:
                raise BudgetError(f"more than {budget} decompositions")
            leaf(j, x, parts)
            return
        # v stays out of the decomposition
        rec(v + 1, j + 1, x * degree[v])
        covered[v] = True
        # v is matched by an isolated edge
        for u, w in nbrs[v]:
            if u > v and not covered[u]:
                covered[u] = True
                parts.append((v, u))
                rec(v + 1, j, -x * w * w)
                parts.pop()
                covered[u] = False
        # v is the minimum vertex of a cycle
        cycles([v], j, x, 2)
        covered[v] = False

    def cycles(path, j, x, product):
        """Close or extend a path from its minimum vertex through larger free
        vertices; each cycle is closed in one direction only (second vertex
        smaller than last).  product is 2 times the path's weights."""
        start, u = path[0], path[-1]
        for v, w in nbrs[u]:
            if v == start:
                if len(path) >= 3 and path[1] < u:
                    parts.append(tuple(path))
                    sign = -1 if len(path) % 2 == 0 else 1
                    rec(start + 1, j, sign * x * product * w)
                    parts.pop()
            elif v > start and not covered[v]:
                covered[v] = True
                path.append(v)
                cycles(path, j, x, product * w)
                path.pop()
                covered[v] = False

    rec(0, 0, 1)
    return math.prod(degree)


def _decomposition(parts) -> Decomposition:
    edges = sorted(p for p in parts if len(p) == 2)
    cycles = sorted(p for p in parts if len(p) > 2)
    return Decomposition(tuple(edges), tuple(cycles))


def enumerate_decompositions(g: WeightedGraph, budget: int = DEFAULT_BUDGET):
    """Yield every decomposition of g exactly once, empty one included.

    The walk runs to the end before the first one is yielded, so all of
    them (at most `budget`) are held at once.
    """
    found = []
    _walk(g, budget, lambda j, x, parts: found.append(_decomposition(parts)))
    yield from found


def decomposition_term(d: Decomposition, g: WeightedGraph) -> tuple:
    """One summand (-1)^e 2^s u^j * weights / degrees, as the pair (j, scalar).

    u = t - 1 and j = n - |V(D)|.  The reference the integer walk is
    tested against; the sums do not call it.
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


def oracle_u(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> tuple:
    """Sum of decomposition terms as (coeffs, den) in lowest terms:
    sum_i coeffs[i] u^i / den, u = t - 1."""
    sums = [0] * (g.n + 1)

    def add(j, x, parts):
        sums[j] += x

    return lowest_terms(sums, _walk(g, budget, add))


def charpoly_via_decompositions(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> Polynomial:
    """Sum of decomposition terms; equals the exact characteristic polynomial."""
    return Polynomial.from_u_coefficients(*oracle_u(g, budget))


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
    if g.signed is None:
        raise ShapeError("graph does not carry ring metadata")
    signed = set(g.signed)
    grouped: dict = {}

    def add(j, x, parts):
        # only a leaf with a cycle through every signed vertex is classified
        if any(len(p) > 2 and signed <= set(p) for p in parts):
            cls = classify_long(_decomposition(parts), g)
            grouped.setdefault((cls.h, cls.i, cls.j), [0] * (g.n + 1))[j] += x

    common = _walk(g, budget, add)
    return {key: Polynomial.from_u_coefficients(s, common) for key, s in grouped.items()}


def long_cycle_monomial(tau: int, ell: int, m: int, k) -> tuple:
    """The long-cycle part for a ring with counts (tau, ell, m) as the
    monomial (c, j), meaning c * (t - 1)^j."""
    k = Rat(k)
    if tau < 3 or ell < 0 or m < 0 or ell + m > tau:
        raise ParameterError(f"invalid counts tau={tau}, ell={ell}, m={m}")
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    return Rat((-1) ** (tau - 1)) / (Rat(2) ** (tau - 1) * (k + 1) ** (m + ell)), 2 * (m + ell)


def long_cycle_closed_form(tau: int, ell: int, m: int, k) -> Polynomial:
    """Closed form of the long-cycle part for a ring with counts (tau, ell, m)."""
    scalar, j = long_cycle_monomial(tau, ell, m, k)
    return Polynomial.t_minus_one_power(j).scale(scalar)


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
