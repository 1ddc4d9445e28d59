"""Brute-force decomposition enumeration: the ground-truth oracle.

A decomposition is a vertex-disjoint collection of edges and cycles.
Summing the weighted terms over all decompositions reproduces the
characteristic polynomial of the normalized Laplacian.  The oracle reads
only the graph, never its ring structure or the other two routes.  (The
decompositions as objects, their terms one by one and the long-cycle
references live with the tests, on top of `_walk`.)

The term of D is (-1)^e 2^s u^j prod_{E(D)} w / prod_{V(D)} d with
u = t - 1 and j = n - |V(D)| (isolated edges count twice in the weight
product).  It has as many weight factors as degree factors, |V(D)| each,
so scaling every weight and degree by L, the least common multiple of
the weight denominators, leaves it unchanged.  Over the common
denominator P = prod_v D_v of the scaled degrees D_v = L d_v, the term
is x / P with the integer x = (-1)^e 2^s prod W prod_{v not in V(D)} D_v
and W = L w.  Each vertex's cycles (those it is the least vertex of) are
found once per graph, as bitmasks with their factors +-2 prod W, beside
its matching edges; one recursive walk then covers vertices in a bitmask,
tries the listed parts disjoint from it and builds x as it descends.  A
sum is one integer per power of u over P, in lowest terms (the same
(coeffs, den) form as the exact and transfer routes).
"""

from __future__ import annotations

import math

from .errors import BudgetError
from .graphs import WeightedGraph
from .polynomials import lowest_terms

MAX_VERTICES = 30
DEFAULT_BUDGET = 10_000_000


def _scale(g: WeightedGraph) -> tuple:
    """The graph's integer neighbour lists [(u, W_uv)] and degrees D_v, scaled by L.

    L is the least common multiple of the weight denominators.  A vertex of
    degree 0 is never covered, so its factor cancels; D_v = 1 keeps P nonzero.
    """
    nbrs = [[] for _ in range(g.n)]
    for (u, v), w in g.scaled_weights.items():  # edge order, as in g.scaled_adj
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
    # heads[v]: the parts whose minimum vertex is v, as (vertex bitmask, the
    # tuple pushed onto parts, factor): isolated edges (v, u) with -W^2, then
    # cycles with +-2 prod W
    heads = [[(1 << v | 1 << u, (v, u), -w * w) for u, w in nbrs[v] if u > v]
             for v in range(n)]
    found = 0

    def cycles(path, mask, product):
        """Close or extend a path from its minimum vertex through larger
        vertices off it; each cycle is closed in one direction only (second
        vertex smaller than last).  product is 2 times the path's weights."""
        nonlocal found
        start, u = path[0], path[-1]
        for v, w in nbrs[u]:
            if v == start:
                if len(path) >= 3 and path[1] < u:
                    found += 1  # a cycle on its own is a decomposition
                    if found > budget:
                        raise BudgetError(f"more than {budget} decompositions")
                    sign = -1 if len(path) % 2 == 0 else 1
                    heads[start].append((mask, tuple(path), sign * product * w))
            elif v > start and not mask >> v & 1:
                path.append(v)
                cycles(path, mask | 1 << v, product * w)
                path.pop()

    for s in range(n):
        cycles([s], 1 << s, 2)
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


def oracle_u(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> tuple:
    """Sum of decomposition terms as (coeffs, den) in lowest terms:
    sum_i coeffs[i] u^i / den, u = t - 1."""
    sums = [0] * (g.n + 1)

    def add(j, x, parts):
        sums[j] += x

    return lowest_terms(sums, _walk(g, budget, add))

