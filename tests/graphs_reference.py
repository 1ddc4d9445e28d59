"""Graph-level references for what the package reads from words, for the
tests: the subgraph test, which aligns two assembled rings module by
module and compares their edges and weights (the reference for
`graphs.ring_embeds`), and 1-WL colour refinement, the reference for the
witness rule that distinct word classes give non-isomorphic rings."""

import math
from typing import Optional

from cospec.errors import ShapeError
from cospec.graphs import WeightedGraph


def _alignment_map(g1: WeightedGraph, g2: WeightedGraph, offset: int, reverse: bool):
    """Vertex map g1 -> g2 aligning module i to offset+i (or offset-i)."""
    tau = g1.word.tau
    mapping = {}
    for i in range(tau):
        j = (offset - i) % tau if reverse else (offset + i) % tau
        s_target = (j + 1) % tau if reverse else j
        mapping[g1.signed[i]] = g2.signed[s_target]
        if g1.unsigned[i] is not None:
            if g2.unsigned[j] is None:
                return None
            a, b = g1.unsigned[i]
            a2, b2 = g2.unsigned[j]
            if reverse:
                a2, b2 = b2, a2
            mapping[a] = a2
            mapping[b] = b2
    return mapping


def subgraph_after_symmetry(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    """True iff some module rotation/reflection embeds g1's edges into g2.

    Every edge of g1 must land on an edge of g2 with equal weight.
    """
    if g1.word is None or g2.word is None:
        raise ShapeError("both graphs must carry ring metadata")
    if g1.word.tau != g2.word.tau:
        raise ShapeError(f"ring lengths differ: {g1.word.tau} vs {g2.word.tau}")
    if g1.edge_count > g2.edge_count:
        return False
    # both graphs' integer weights over one denominator, g2's in both orientations
    scale = math.lcm(g1.scale, g2.scale)
    edges1 = [(u, v, x * (scale // g1.scale)) for (u, v), x in g1.scaled_weights.items()]
    weights2 = {}
    for (u, v), x in g2.scaled_weights.items():
        weights2[u, v] = weights2[v, u] = x * (scale // g2.scale)
    tau = g1.word.tau
    for reverse in (False, True):
        for offset in range(tau):
            mapping = _alignment_map(g1, g2, offset, reverse)
            if mapping is None:
                continue
            if all(weights2.get((mapping[u], mapping[v])) == x for u, v, x in edges1):
                return True
    return False


def non_isomorphism_witness(g1: WeightedGraph, g2: WeightedGraph) -> Optional[str]:
    """Why g1 and g2 are not isomorphic as weighted graphs, or None if unshown.

    "edge_count" when the edge counts differ, else "wl" when 1-WL colour
    refinement separates them.  Isomorphic graphs get None, since an
    isomorphism preserves every colour histogram.
    """
    if g1.edge_count != g2.edge_count:
        return "edge_count"
    return "wl" if wl_separates(g1, g2) else None


def wl_separates(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    """1-WL colour refinement on both graphs in lockstep: a vertex starts
    with its weighted degree, and each round its colour becomes its old
    colour plus the sorted (weight, colour) pairs of its neighbours.  Colours
    are interned in one table, so equal colours mean equal refinement
    histories; True iff the histograms differ at some round.  Weights and
    degrees are the graphs' integers over their common scale."""
    scale = math.lcm(g1.scale, g2.scale)
    multipliers = [scale // g.scale for g in (g1, g2)]
    table: dict = {}
    colours = [[table.setdefault(d * m, len(table)) for d in g.scaled_degrees]
               for g, m in zip((g1, g2), multipliers)]
    for _ in range(max(g1.n, g2.n)):
        if sorted(colours[0]) != sorted(colours[1]):
            return True
        classes = len(set(colours[0]))
        colours = [
            [
                table.setdefault(
                    (c[v], tuple(sorted((x * m, c[u]) for u, x in g.scaled_adj[v].items()))),
                    len(table),
                )
                for v in range(g.n)
            ]
            for g, m, c in zip((g1, g2), multipliers, colours)
        ]
        if len(set(colours[0])) == classes:
            break
    return sorted(colours[0]) != sorted(colours[1])
