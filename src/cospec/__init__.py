"""Ring-of-modules graph families that stay cospectral under toggling,
with three independent exact routes to the characteristic polynomial of
the normalized Laplacian, plus blowups into simple cospectral pairs.
"""

__version__ = "0.1.0"

from .blowup import blow_up, is_simple, scale_weights, simple_blowup_recipe
from .decomps import oracle_u
from .graphs import (
    WeightedGraph,
    assemble_ring,
    build_module_gadget,
    eigenvalues_numeric,
    export_graph,
    normalized_laplacian,
    ring_embeds,
)
from .linalg import exact_u
from .rationals import Rat
from .transfer import certify_identities, transfer_u
from .words import Word, canonical_form, parse_word, toggle

__all__ = [
    "blow_up", "is_simple", "scale_weights", "simple_blowup_recipe",
    "oracle_u",
    "WeightedGraph", "assemble_ring", "build_module_gadget",
    "eigenvalues_numeric", "export_graph", "normalized_laplacian",
    "ring_embeds",
    "exact_u",
    "Rat",
    "certify_identities", "transfer_u",
    "Word", "canonical_form", "parse_word", "toggle",
]
