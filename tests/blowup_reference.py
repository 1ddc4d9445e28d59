"""The general chain splitter the blowup recipe is checked against, and its
one-chain form, for the tests.

`simple_blowup_recipe` splits only a ring's own runs of E modules, which
meet every condition below by construction; `_split_chains` takes any
chains, validates them, and returns the old-to-new vertex map as well.
"""

from cospec.blowup import _check_size, _edge_module_runs, blow_up
from cospec.errors import ParameterError, ShapeError
from cospec.graphs import WeightedGraph, assemble_ring
from cospec.rationals import Rat
from cospec.words import Word


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


def split_e_chain(g: WeightedGraph, chain) -> WeightedGraph:
    """Split one chain of equal-integer-weight edges into parallel paths."""
    new_graph, _ = _split_chains(g, [tuple(chain)])
    return new_graph


def recipe_by_chains(word: Word, k: int) -> WeightedGraph:
    """The recipe's graph for a word with a letter other than E and no lone
    E module: each run of E modules split as a chain of signed vertices by
    `_split_chains`, then multiplicity k on the unsigned vertices."""
    g = assemble_ring(word, k)
    chains = [tuple(g.signed[i % word.tau] for i in range(run[0], run[0] + len(run) + 1))
              for run in _edge_module_runs(word)]
    split, old_to_new = _split_chains(g, chains)
    return blow_up(split, {old_to_new[v]: k for pair in g.unsigned if pair is not None for v in pair})
