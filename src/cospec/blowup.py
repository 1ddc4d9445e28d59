"""From weighted graphs to simple graphs: scaling, independent-set
blowups, and the recipe that makes a ring simple at integer k, all on a
graph's integer weights W over its scale s (W / s is integral iff s | W).

The recipe splits each run of two or more E modules, a path of weight
k + 1 edges, into k + 1 parallel unit paths, and gives every unsigned
vertex multiplicity k.  A lone E module raises RecipeError; a ring of E
modules only is rescaled to unit weights instead.
"""

from __future__ import annotations

import math

from .errors import ParameterError, RecipeError, ShapeError
from .graphs import WeightedGraph, assemble_ring
from .rationals import Rat
from .words import Word, toggle

# Limits on a blown-up graph, checked from its counts before any edge is
# built.  A unit-weight blowup has one edge per unit of weight (about 2 k^2
# for PCC at k): `blowup --word PCC --k 355`, just under 2^18 edges, peaks
# at about 230 MB on CPython 3.11, and at n = 4096 the dense eigensolve
# alone takes 128 MiB per matrix.
MAX_BLOWUP_VERTICES = 4096
MAX_BLOWUP_EDGES = 1 << 18


def _check_size(n: int, edges: int) -> None:
    if n > MAX_BLOWUP_VERTICES or edges > MAX_BLOWUP_EDGES:
        raise RecipeError(f"the blowup would have {n} vertices and {edges} edges, over the "
                          f"limits of {MAX_BLOWUP_VERTICES} vertices and {MAX_BLOWUP_EDGES} edges")


def scale_weights(g: WeightedGraph, c) -> WeightedGraph:
    """Multiply every edge weight by c > 0; normalized Laplacian unchanged."""
    c = Rat(c)
    if c <= 0:
        raise ParameterError(f"scale factor must be positive, got {c}")
    return WeightedGraph(
        g.n,
        [(u, v, x * c.numerator) for (u, v), x in g.scaled_weights.items()],
        scale=g.scale * c.denominator,
        word=g.word, k=g.k, signed=g.signed, unsigned=g.unsigned,
    )


def blow_up(g: WeightedGraph, multiplicity: dict) -> WeightedGraph:
    """Replace vertex v by multiplicity[v] independent copies.

    An edge {u, v} of weight w becomes a complete bipartite graph with
    every weight w / (r_u r_v).  Vertices absent from the map keep
    multiplicity 1.  A key that is no vertex or a multiplicity that is not a
    whole number >= 1 raises ParameterError, and the limits above RecipeError.
    """
    for v in multiplicity:
        if v not in range(g.n):
            raise ParameterError(f"multiplicity given for {v!r}, not a vertex of a graph on {g.n}")
    reps = []
    offsets = []
    total = 0
    for v in range(g.n):
        r = multiplicity.get(v, 1)
        if not isinstance(r, (int, float, Rat)) or r < 1 or r % 1:
            raise ParameterError(f"multiplicity of vertex {v} must be a whole number >= 1, "
                                 f"got {r!r}")
        r = int(r)
        offsets.append(total)
        reps.append(r)
        total += r
    _check_size(total, sum(reps[u] * reps[v] for u, v in g.scaled_weights))
    # w / (r_u r_v) = W (c / (r_u r_v)) / (s c) with c the lcm of the r_u r_v
    c = math.lcm(*(reps[u] * reps[v] for u, v in g.scaled_weights))
    edges = []
    for (u, v), x in g.scaled_weights.items():
        shared = x * (c // (reps[u] * reps[v]))
        for i in range(reps[u]):
            for j in range(reps[v]):
                edges.append((offsets[u] + i, offsets[v] + j, shared))
    return WeightedGraph(total, edges, scale=g.scale * c)


def is_simple(g: WeightedGraph) -> bool:
    """True iff every edge weight is exactly 1."""
    return all(x == g.scale for x in g.scaled_weights.values())


def _edge_module_runs(w: Word):
    """Maximal cyclic runs of consecutive E letters, as module index lists
    (w has a letter other than E)."""
    tau = w.tau
    runs = []
    for i, letter in enumerate(w.letters):
        if letter == "E" and w.letters[i - 1] != "E":  # a run starts at i
            run = [i]
            while w.letters[(run[-1] + 1) % tau] == "E":
                run.append((run[-1] + 1) % tau)
            runs.append(run)
    return runs


def _recipe_one(word: Word, k: int) -> WeightedGraph:
    g = assemble_ring(word, k)
    if all(c == "E" for c in word.letters):
        # uniform-weight cycle: rescaling to unit weights already gives a
        # simple graph with the same normalized Laplacian
        return scale_weights(g, Rat(1, k + 1))
    runs = _edge_module_runs(word)
    for run in runs:
        if len(run) == 1:
            raise RecipeError(
                f"isolated E module at position {run[0]} keeps weight {k + 1}; "
                "a lone edge cannot be split into parallel paths "
                "(scale the weights first and use a plain blowup instead)"
            )
    # a run of E modules spans the signed vertices from its first "+" pole to
    # its last "-" pole; those strictly inside touch only the run's edges,
    # and the split makes k + 1 of each of them and of each run edge
    interior = {g.signed[i] for run in runs for i in run[1:]}
    _check_size(g.n + k * len(interior), g.edge_count + k * (len(interior) + len(runs)))
    index = {v: i for i, v in enumerate(v for v in range(g.n) if v not in interior)}
    edges = [(index[u], index[v], x) for (u, v), x in g.scaled_weights.items()
             if u in index and v in index]
    # each run's weight-(k+1) path becomes k+1 parallel unit paths
    n = len(index)
    for run in runs:
        a, b = index[g.signed[run[0]]], index[g.signed[(run[-1] + 1) % word.tau]]
        for _copy in range(k + 1):
            prev = a
            for _step in range(len(run) - 1):
                edges.append((prev, n, g.scale))
                prev = n
                n += 1
            edges.append((prev, b, g.scale))
    multiplicity = {index[v]: k for pair in g.unsigned if pair is not None for v in pair}
    result = blow_up(WeightedGraph(n, edges, scale=g.scale), multiplicity)
    if not is_simple(result):
        raise RecipeError(f"blowup of {word} at k={k} left non-unit weights")
    return result


def simple_blowup_recipe(w: Word, k: int):
    """Blow both G(W) and G(W^T) up into certified simple graphs.

    Unsigned vertices get multiplicity k and each maximal run of at least
    two E modules becomes k+1 parallel unit paths.
    """
    if not isinstance(k, int) or k < 1:
        raise ParameterError(f"recipe needs a positive integer k, got {k!r}")
    return _recipe_one(w, k), _recipe_one(toggle(w), k)


def solve_uniform_multiplicities(g: WeightedGraph):
    """Multiplicities making every blown edge weight exactly 1, or None.

    Solves r_u * r_v = w(u, v) over positive integers by propagation from
    each choice of r_0, the divisors of the gcd of vertex 0's weights in
    increasing order (the graph must be connected).  Any such blowup has one
    edge per unit of weight: past MAX_BLOWUP_EDGES, RecipeError comes first.
    """
    if g.n < 2:  # no edges: unit multiplicities make it simple
        return dict.fromkeys(range(g.n), 1)
    if not g.is_connected():
        raise ShapeError("graph must be connected")
    s = g.scale
    if any(x % s for x in g.scaled_weights.values()):
        return None
    edges = sum(g.scaled_weights.values()) // s
    if edges > MAX_BLOWUP_EDGES:
        raise RecipeError(f"whatever the multiplicities, the blowup would have {edges} "
                          f"edges, over the limit of {MAX_BLOWUP_EDGES} edges")
    m = math.gcd(*g.scaled_adj[0].values()) // s
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    for r0 in small + [m // d for d in reversed(small) if d * d != m]:
        reps = {0: r0}
        stack = [0]
        ok = True
        while stack and ok:
            u = stack.pop()
            for v, x in g.scaled_adj[u].items():
                need, rem = divmod(x // s, reps[u])
                if rem or need < 1:
                    ok = False
                    break
                if v in reps:
                    if reps[v] != need:
                        ok = False
                        break
                else:
                    reps[v] = need
                    stack.append(v)
        if ok and all(reps[u] * reps[v] * s == x for (u, v), x in g.scaled_weights.items()):
            return reps
    return None
