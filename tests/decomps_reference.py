"""The decomposition oracle's references, on a search of their own.

`cospec.decomps` sums the terms over each walk state once and never
builds a decomposition.  `_walk` here visits every decomposition, one
leaf each, on a table of edges and cycles that `_parts` finds by its own
search (not `decomps._parts`, whose table it checks), and is the
brute-force reference the summation is tested against.  On top of it
these helpers build each decomposition as an object, its term as a
rational (the reference the walk's integers are tested against), and the
long-cycle part of a ring graph, grouped by how it crosses the C modules,
beside the closed forms it must equal.
"""

import math
from dataclasses import dataclass

from cospec.decomps import DEFAULT_BUDGET, MAX_VERTICES
from cospec.errors import BudgetError, ParameterError, ShapeError
from cospec.graphs import WeightedGraph
from cospec.polynomials import lowest_terms
from cospec.rationals import Rat
from cospec.transfer import long_cycle_monomial
from polynomial_reference import Polynomial


def _parts(g: WeightedGraph, budget: int) -> tuple:
    """(heads, degree): heads[v] lists the edges (v, u), u > v, then the
    cycles whose least vertex is v, each as (vertex bitmask, vertex tuple,
    factor), and degree[v] is D_v (1 if v is isolated).  An edge's factor
    is -W^2, a cycle's (-1)^(its length + 1) 2 prod W.  A cycle is found
    from its least vertex along both directions and kept in the one whose
    second vertex is smaller than its last; each found counts against the
    budget, since a cycle on its own is a decomposition."""
    n = g.n
    if n > MAX_VERTICES:
        raise BudgetError(f"n={n} exceeds the oracle limit of {MAX_VERTICES}")
    adj = g.scaled_adj
    heads = [[(1 << v | 1 << u, (v, u), -w * w) for u, w in adj[v].items() if u > v]
             for v in range(n)]
    found = 0

    def extend(path):
        nonlocal found
        for v in adj[path[-1]]:
            if v == path[0] and len(path) >= 3 and path[1] < path[-1]:
                found += 1
                if found > budget:
                    raise BudgetError(f"more than {budget} decompositions")
                product = math.prod(adj[a][b] for a, b in zip(path, path[1:] + path[:1]))
                heads[path[0]].append((sum(1 << x for x in path), tuple(path),
                                       (-1) ** (len(path) + 1) * 2 * product))
            elif v > path[0] and v not in path:
                extend(path + [v])

    for s in range(n):
        extend([s])
    return heads, [d or 1 for d in g.scaled_degrees]


def _walk(g: WeightedGraph, budget: int, leaf) -> int:
    """Call leaf(j, x, parts) once per decomposition D; return P = prod D_v.

    j = n - |V(D)| and x / P is the term of D.  `parts` is the walk's stack:
    (u, v) for an isolated edge, a vertex tuple of length >= 3 for a cycle.
    The leaf may read it but must not keep it.
    """
    heads, degree = _parts(g, budget)
    n = g.n
    parts = []
    emitted = 0

    def rec(v, j, x, covered):
        """Decide the vertices from v on; x carries the decided factors."""
        nonlocal emitted
        while v < n and covered >> v & 1:
            v += 1
        if v == n:
            emitted += 1
            if emitted > budget:
                raise BudgetError(f"more than {budget} decompositions")
            leaf(j, x, parts)
            return
        rec(v + 1, j + 1, x * degree[v], covered)  # v stays out
        for mask, part, factor in heads[v]:
            if not covered & mask:
                parts.append(part)
                rec(v + 1, j, x * factor, covered | mask)
                parts.pop()

    rec(0, 0, 1, 0)
    return math.prod(degree)


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


def oracle_u_by_leaves(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> tuple:
    """The oracle's (coeffs, den), summed one decomposition at a time."""
    sums = [0] * (g.n + 1)

    def add(j, x, parts):
        sums[j] += x

    return lowest_terms(sums, _walk(g, budget, add))


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
        scalar /= Rat(g.scaled_degrees[v], g.scale)
    return g.n - len(covered), scalar


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


def long_cycle_closed_form(tau: int, ell: int, m: int, k) -> Polynomial:
    """Closed form of the long-cycle part for a ring with counts (tau, ell, m)."""
    (c, d), j = long_cycle_monomial(tau, ell, m, k)
    return Polynomial.t_minus_one_power(j).scale(Rat(c, d))


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
