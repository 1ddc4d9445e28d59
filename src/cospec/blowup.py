"""From weighted graphs to simple graphs: scaling, independent-set
blowups, and splitting chains of edge modules into parallel paths.
"""

from __future__ import annotations

from .errors import ParameterError, RecipeError, ShapeError
from .graphs import WeightedGraph, assemble_ring
from .rationals import Rat, is_integral
from .words import Word, toggle


def scale_weights(g: WeightedGraph, c) -> WeightedGraph:
    """Multiply every edge weight by c > 0; normalized Laplacian unchanged."""
    c = Rat(c)
    if c <= 0:
        raise ParameterError(f"scale factor must be positive, got {c}")
    return WeightedGraph(
        g.n,
        [(u, v, w * c) for u, v, w in g.edges()],
        word=g.word, k=g.k, signed=g.signed, unsigned=g.unsigned,
    )


def blow_up(g: WeightedGraph, multiplicity: dict) -> WeightedGraph:
    """Replace vertex v by multiplicity[v] independent copies.

    An edge {u, v} of weight w becomes a complete bipartite graph with
    every weight w / (r_u r_v).  Vertices absent from the map keep
    multiplicity 1.
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
    edges = []
    for u, v, w in g.edges():
        shared = w / (reps[u] * reps[v])
        for i in range(reps[u]):
            for j in range(reps[v]):
                edges.append((offsets[u] + i, offsets[v] + j, shared))
    return WeightedGraph(total, edges)


def _split_chains(g: WeightedGraph, chains):
    """Replace each chain (a vertex path) by w parallel unit-weight paths.

    Returns (new_graph, old_to_new vertex map); interior chain vertices
    have no image.  Chains must be vertex-disjoint paths of length >= 2
    whose edges all carry one equal integer weight >= 2 and whose
    interior vertices have no other incident edges.
    """
    interior = set()
    removed_edges = set()
    for chain in chains:
        if len(chain) < 3:
            raise ShapeError("chain must contain at least two edges")
        ws = set()
        for x, y in zip(chain, chain[1:]):
            w = g.weight(x, y)
            if w is None:
                raise ShapeError(f"chain step ({x},{y}) is not an edge")
            ws.add(w)
            removed_edges.add((x, y) if x < y else (y, x))
        if len(ws) != 1:
            raise ShapeError(f"chain edges carry unequal weights {sorted(map(str, ws))}")
        (w,) = ws
        if not is_integral(w) or w < 2:
            raise ParameterError(f"chain weight must be an integer >= 2, got {w}")
        for x in chain[1:-1]:
            if x in interior:
                raise ShapeError("chains must be vertex-disjoint")
            if len(g.adj[x]) != 2:
                raise ShapeError(f"interior chain vertex {x} has extra edges")
            interior.add(x)

    old_to_new = {}
    next_id = 0
    for v in range(g.n):
        if v not in interior:
            old_to_new[v] = next_id
            next_id += 1
    edges = [
        (old_to_new[u], old_to_new[v], w)
        for u, v, w in g.edges()
        if (u, v) not in removed_edges
    ]
    for chain in chains:
        copies = int(g.weight(chain[0], chain[1]))
        a, b = old_to_new[chain[0]], old_to_new[chain[-1]]
        hops = len(chain) - 1
        for _ in range(copies):
            prev = a
            for _step in range(hops - 1):
                edges.append((prev, next_id, Rat(1)))
                prev = next_id
                next_id += 1
            edges.append((prev, b, Rat(1)))
    return WeightedGraph(next_id, edges), old_to_new


def is_simple(g: WeightedGraph) -> bool:
    """True iff every edge weight is exactly 1."""
    return all(w == 1 for _, _, w in g.edges())


def _edge_module_runs(w: Word):
    """Maximal cyclic runs of consecutive E letters, as module index lists."""
    tau = w.tau
    if all(c == "E" for c in w.letters):
        return [list(range(tau))]
    runs = []
    i = 0
    while i < tau:
        if w.letters[i] == "E" and w.letters[i - 1] != "E":
            run = []
            j = i
            while w.letters[j % tau] == "E":
                run.append(j % tau)
                j += 1
            runs.append(run)
            i = j
        else:
            i += 1
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
            if k + 1 != 1:
                raise RecipeError(
                    f"isolated E module at position {run[0]} keeps weight {k + 1}; "
                    "a lone edge cannot be split into parallel paths "
                    "(scale the weights first and use a plain blowup instead)"
                )
            continue
        chain = [g.signed[run[0]]]
        for idx in run:
            chain.append(g.signed[(idx + 1) % word.tau])
        chains.append(tuple(chain))
    split, old_to_new = _split_chains(g, chains)
    multiplicity = {}
    for pair in g.unsigned:
        if pair is not None:
            multiplicity[old_to_new[pair[0]]] = k
            multiplicity[old_to_new[pair[1]]] = k
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

    Solves r_u * r_v = w(u, v) over positive integers by propagation
    from each divisor choice at vertex 0 (the graph must be connected).
    """
    if g.n == 0:
        return {}
    if not g.is_connected():
        raise ShapeError("graph must be connected")
    for u, v, w in g.edges():
        if not is_integral(w):
            return None
    anchor_weights = [int(w) for w in g.adj[0].values()]
    bound = min(anchor_weights)
    for r0 in range(1, bound + 1):
        if any(w % r0 for w in anchor_weights):
            continue
        reps = {0: r0}
        stack = [0]
        ok = True
        while stack and ok:
            u = stack.pop()
            for v, w in g.adj[u].items():
                need, rem = divmod(int(w), reps[u])
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
        if ok and all(
            reps[u] * reps[v] == int(w) for u, v, w in g.edges()
        ):
            return reps
    return None
