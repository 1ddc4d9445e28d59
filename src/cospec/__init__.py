"""Ring-of-modules graph families that stay cospectral under toggling,
with three independent exact routes to the characteristic polynomial of
the normalized Laplacian, plus blowups into simple cospectral pairs.
"""

__version__ = "0.1.0"

from .blowup import (
    blow_up,
    is_simple,
    scale_weights,
    simple_blowup_recipe,
    split_e_chain,
)
from .decomps import (
    Decomposition,
    LongCycleClass,
    charpoly_via_decompositions,
    classify_long,
    enumerate_decompositions,
    long_cycle_closed_form,
    long_part_bruteforce,
)
from .graphs import (
    ModuleGadget,
    WeightedGraph,
    assemble_ring,
    build_module_gadget,
    export_graph,
    normalized_laplacian,
    random_walk_matrix,
    subgraph_after_symmetry,
)
from .linalg import charpoly_exact, eigenvalues_numeric
from .polynomials import Polynomial
from .rationals import Rat
from .transfer import (
    certify_identities,
    charpoly_via_transfer,
    short_part,
)
from .words import Word, canonical_form, cyclic_equivalent, parse_word, toggle

__all__ = [
    "blow_up", "is_simple", "scale_weights",
    "simple_blowup_recipe", "split_e_chain",
    "Decomposition", "LongCycleClass", "charpoly_via_decompositions",
    "classify_long", "enumerate_decompositions", "long_cycle_closed_form",
    "long_part_bruteforce",
    "ModuleGadget", "WeightedGraph", "assemble_ring", "build_module_gadget",
    "export_graph", "normalized_laplacian", "random_walk_matrix",
    "subgraph_after_symmetry",
    "charpoly_exact", "eigenvalues_numeric",
    "Polynomial",
    "Rat",
    "certify_identities", "charpoly_via_transfer", "short_part",
    "Word", "canonical_form", "cyclic_equivalent", "parse_word", "toggle",
]
