"""The graph-level subgraph test, as the reference for the word rule
`graphs.ring_embeds`: it aligns two assembled rings module by module and
compares their edges and weights, for the tests."""

import math

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
