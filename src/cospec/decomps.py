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
and W = L w.  One recursive walk enumerates the decompositions and builds x
as it descends; a sum is one integer per power of u, divided by P once
per coefficient and shifted to t once at the end (the same convention as
the exact and transfer routes).
"""

from __future__ import annotations

import math

from .errors import BudgetError
from .graphs import WeightedGraph
from .polynomials import Polynomial, lowest_terms

MAX_VERTICES = 30
DEFAULT_BUDGET = 10_000_000


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
