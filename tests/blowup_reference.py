"""One-chain form of the blowup's chain splitting, for the tests."""

from cospec.blowup import _split_chains
from cospec.graphs import WeightedGraph


def split_e_chain(g: WeightedGraph, chain) -> WeightedGraph:
    """Split one chain of equal-integer-weight edges into parallel paths."""
    new_graph, _ = _split_chains(g, [tuple(chain)])
    return new_graph
