"""From weighted graphs to simple graphs: scaling, independent-set
blowups, and splitting chains of edge modules into parallel paths, all on
a graph's integer weights W over its scale s (W / s is integral iff s | W).
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
    multiplicity 1.  Raises RecipeError past the size limits above.
    """
    reps = []
    offsets = []
    total = 0
    for v in range(g.n):
        r = int(multiplicity.get(v, 1))
        if r < 1:
            raise ParameterError(f"multiplicity of vertex {v} must be >= 1, got {r}")
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


def _split_chains(g: WeightedGraph, chains):
    """Replace each chain (a vertex path) by w parallel unit-weight paths.

    Returns (new_graph, old_to_new vertex map); interior chain vertices
    have no image.  Chains must be vertex-disjoint paths of length >= 2
    whose edges all carry one equal integer weight >= 2 and whose
    interior vertices have no other incident edges.
    """
    s = g.scale
    interior = set()
    removed_edges = set()
    new_vertices = new_edges = 0
    for chain in chains:
        if len(chain) < 3:
            raise ShapeError("chain must contain at least two edges")
        ws = set()
        for x, y in zip(chain, chain[1:]):
            key = (x, y) if x < y else (y, x)
            if key not in g.scaled_weights:
                raise ShapeError(f"chain step ({x},{y}) is not an edge")
            ws.add(g.scaled_weights[key])
            removed_edges.add(key)
        if len(ws) != 1:
            raise ShapeError(f"chain edges carry unequal weights {sorted(str(Rat(w, s)) for w in ws)}")
        (w,) = ws
        if w % s or w < 2 * s:
            raise ParameterError(f"chain weight must be an integer >= 2, got {Rat(w, s)}")
        new_vertices += w // s * (len(chain) - 2)
        new_edges += w // s * (len(chain) - 1)
        for x in chain[1:-1]:
            if x in interior:
                raise ShapeError("chains must be vertex-disjoint")
            if len(g.scaled_adj[x]) != 2:
                raise ShapeError(f"interior chain vertex {x} has extra edges")
            interior.add(x)
    _check_size(g.n - len(interior) + new_vertices, g.edge_count - len(removed_edges) + new_edges)

    old_to_new = {}
    next_id = 0
    for v in range(g.n):
        if v not in interior:
            old_to_new[v] = next_id
            next_id += 1
    edges = [
        (old_to_new[u], old_to_new[v], x)
        for (u, v), x in g.scaled_weights.items()
        if (u, v) not in removed_edges
    ]
    for chain in chains:
        a, b = old_to_new[chain[0]], old_to_new[chain[-1]]
        hops = len(chain) - 1
        for _ in range(g.scaled_adj[chain[0]][chain[1]] // s):
            prev = a
            for _step in range(hops - 1):
                edges.append((prev, next_id, s))
                prev = next_id
                next_id += 1
            edges.append((prev, b, s))
    return WeightedGraph(next_id, edges, scale=s), old_to_new


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
    chains = []
    for run in _edge_module_runs(word):
        if len(run) == 1:
            raise RecipeError(
                f"isolated E module at position {run[0]} keeps weight {k + 1}; "
                "a lone edge cannot be split into parallel paths "
                "(scale the weights first and use a plain blowup instead)"
            )
        # the signed vertices from the run's first "+" pole to its last "-" pole
        chains.append(tuple(g.signed[i % word.tau] for i in range(run[0], run[0] + len(run) + 1)))
    split, old_to_new = _split_chains(g, chains)
    multiplicity = {old_to_new[v]: k for pair in g.unsigned if pair is not None for v in pair}
    result = blow_up(split, multiplicity)
    if not is_simple(result):
        raise RecipeError(f"blowup of {word} at k={k} left non-unit weights")
    return result


def simple_blowup_recipe(w: Word, k: int):
    """Blow both G(W) and G(W^T) up into certified simple graphs.

    Unsigned vertices get multiplicity k and maximal chains of at least
    two consecutive E edges become k+1 parallel paths.
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
    if g.n == 0:
        return {}
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
