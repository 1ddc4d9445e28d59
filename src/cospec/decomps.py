"""Decomposition summation: the ground-truth oracle.

A decomposition is a vertex-disjoint collection of edges and cycles.
Summing the weighted terms over all decompositions reproduces the
characteristic polynomial of the normalized Laplacian.  The oracle reads
only the graph, never its ring structure or the other two routes.  (The
decompositions as objects, their terms one by one, the walk that lists
them and the long-cycle references live with the tests.)

The term of D is (-1)^e 2^s u^j prod_{E(D)} w / prod_{V(D)} d with
u = t - 1 and j = n - |V(D)| (isolated edges count twice in the weight
product).  It has as many weight factors as degree factors, |V(D)| each,
so scaling every weight and degree by L, the least common multiple of
the weight denominators, leaves it unchanged.  Over the common
denominator P = prod_v D_v of the scaled degrees D_v = L d_v, the term
is x / P with the integer x = (-1)^e 2^s prod W prod_{v not in V(D)} D_v
and W = L w.  Each vertex's cycles (those it is the least vertex of) are
found once per graph, as bitmasks with their factors +-2 prod W, beside
its matching edges.  The sum then decides vertices in increasing order:
the least undecided vertex v is left out or covered by one of its listed
parts disjoint from the decided set.  What is left to decide depends only
on that set, so the sum and the count of its completions are computed
once per set and looked up after that; no decomposition is listed.

The sum is a polynomial in u, held as its value at u = 2^B.  Every
coefficient is a sum of at most `budget` terms x, and |x| <= 2^(n/3) P:
weights are positive, so a cycle's weights are at most the degrees of
its vertices, one each, an isolated edge's W^2 is at most D_u D_v, and
there are at most n/3 cycles.  B is chosen with 2^(B-1) above
budget * 2^(n/3) * P, so balanced base-2^B digits read the coefficients
back (over the budget, BudgetError is raised before they are read): one
integer per power of u over P, in lowest terms (the same (coeffs, den)
form as the exact and transfer routes).
"""

from __future__ import annotations

import math

from .errors import BudgetError
from .graphs import WeightedGraph
from .polynomials import balanced_digits, lowest_terms

MAX_VERTICES = 30
DEFAULT_BUDGET = 10_000_000


def _parts(g: WeightedGraph, budget: int) -> tuple:
    """(heads, degree): heads[v] lists the parts whose least vertex is v,
    as (vertex bitmask, factor), and degree[v] is D_v.

    The parts are the isolated edges (v, u) with -W^2, then the cycles with
    +-2 prod W.  Each cycle found counts against the budget, since a cycle
    on its own is a decomposition.
    """
    n = g.n
    if n > MAX_VERTICES:
        raise BudgetError(f"n={n} exceeds the oracle limit of {MAX_VERTICES}")
    nbrs = [list(adj.items()) for adj in g.scaled_adj]  # [(u, W_uv)], W over L
    # a vertex of degree 0 is never covered, so its factor cancels; D_v = 1 keeps P nonzero
    degree = [d or 1 for d in g.scaled_degrees]
    heads = [[(1 << v | 1 << u, -w * w) for u, w in nbrs[v] if u > v] for v in range(n)]
    ring = [[(v, w) for v, w in vs if len(nbrs[v]) > 1] for vs in nbrs]  # degree 1 closes no cycle
    found = 0

    def cycles(path, mask, product):
        """Close or extend a path from its minimum vertex through larger
        vertices off it; each cycle is closed in one direction only (second
        vertex smaller than last).  product is 2 times the path's weights."""
        nonlocal found
        start, u = path[0], path[-1]
        for v, w in ring[u]:
            if v == start:
                if len(path) >= 3 and path[1] < u:
                    found += 1
                    if found > budget:
                        raise BudgetError(f"more than {budget} decompositions")
                    sign = -1 if len(path) % 2 == 0 else 1
                    heads[start].append((mask, sign * product * w))
            elif v > start and not mask >> v & 1:
                path.append(v)
                cycles(path, mask | 1 << v, product * w)
                path.pop()

    for s in range(n):
        top = max((v for v, _ in ring[s]), default=s)
        for v, w in ring[s]:
            if s < v < top:  # a larger neighbour of s is left to close the cycle
                cycles([s, v], 1 << s | 1 << v, 2 * w)
    return heads, degree


def oracle_u(g: WeightedGraph, budget: int = DEFAULT_BUDGET) -> tuple:
    """Sum of decomposition terms as (coeffs, den) in lowest terms:
    sum_i coeffs[i] u^i / den, u = t - 1.

    Raises BudgetError as soon as g has more than `budget` decompositions.
    """
    heads, degree = _parts(g, budget)
    n, common = g.n, math.prod(degree)
    bits = (budget * common << n // 3).bit_length() + 1
    memo = {(1 << n) - 1: (1, 1)}

    def completions(decided):
        """(total, count) over the completions of the bitmask `decided`, the
        vertices decided so far: total sums the product of a completion's
        factors and of D_v u for each vertex it leaves out, at u = 2^bits;
        count is how many completions there are."""
        v = (~decided & (decided + 1)).bit_length() - 1  # least undecided
        key = decided | 1 << v
        rest, count = memo.get(key) or completions(key)  # v left out
        total = degree[v] * rest << bits
        for mask, factor in heads[v]:
            if not decided & mask:
                key = decided | mask
                rest, more = memo.get(key) or completions(key)
                total += factor * rest
                count += more
        # the walk reaches this state, so each completion finishes its own
        # decomposition of g: a count over the budget means g's is over it
        if count > budget:
            raise BudgetError(f"more than {budget} decompositions")
        memo[decided] = total, count
        return total, count

    total, _ = memo.get(0) or completions(0)
    return lowest_terms(balanced_digits(total, bits, n + 1), common)
