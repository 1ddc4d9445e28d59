import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cospec import graphs
from cospec.errors import DegreeError, FormatError, ParameterError, ShapeError
from cospec.graphs import (
    GADGETS,
    WeightedGraph,
    assemble_ring,
    build_module_gadget,
    export_graph,
    non_isomorphism_witness,
    normalized_laplacian,
    ring_edge_count,
    ring_embeds,
)
from cospec.rationals import Rat
from cospec.words import canonical_words, parse_word, toggle, toggle_classes
from graphs_reference import subgraph_after_symmetry
from polynomial_reference import random_walk_matrix

words = st.text(alphabet="PCE", min_size=3, max_size=8).map(parse_word)
ks = st.sampled_from([Rat(1), Rat(2), Rat(1, 2), Rat(7, 3)])


def ring(word, k=1):
    return assemble_ring(parse_word(word), k)


def degree(g, v):
    """The rational degree of v: its integer degree over the graph's scale."""
    return Rat(g.scaled_degrees[v], g.scale)


def integer_form(g):
    return g.n, g.scale, g.scaled_weights, g.scaled_adj, g.scaled_degrees


# ---------------------------------------------------------------- gadgets


def test_e_gadget_single_edge():
    edges, _ = build_module_gadget("E", 1)
    assert edges == (("+", "-", Rat(2)),)


def test_p_gadget_unit_path():
    edges, _ = build_module_gadget("P", 1)
    assert [w for *_, w in edges] == [1, 1, 1]


def test_c_gadget_weights():
    edges, _ = build_module_gadget("C", 2)
    weights = {frozenset((x, y)): w for x, y, w in edges}
    assert weights[frozenset(("a", "+"))] == 2
    assert weights[frozenset(("+", "-"))] == 1
    assert weights[frozenset(("a", "b"))] == 4


def test_gadget_rejects_bad_k():
    # the gadget and the ring take k through module_parameter, and its one message
    for k in (0, -2, Rat(-1, 2)):
        message = f"^module parameter k must be positive, got {k}$"
        for kind in "PCE":
            with pytest.raises(ParameterError, match=message):
                build_module_gadget(kind, k)
        with pytest.raises(ParameterError, match=message):
            assemble_ring(parse_word("PCE"), k)


@pytest.mark.parametrize("k", [1, Rat(7, 3), Rat(2, 5), Rat(10**12, 7)])
def test_gadget_integers_over_their_scale_are_the_weights(k):
    # k, 1, k + 1 and k^2 as integers over the one denominator q^2
    expected = {
        "E": [("+", "-", k + 1)],
        "P": [("a", "+", k), ("+", "-", 1), ("-", "b", k)],
        "C": [("a", "+", k), ("+", "-", 1), ("-", "b", k), ("a", "b", k * k)],
    }
    for kind, edges in expected.items():
        scaled, scale = build_module_gadget(kind, k)
        assert scale == Rat(k).denominator ** 2
        assert all(isinstance(x, int) for *_, x in scaled)
        assert [(x, y, Rat(wt, scale)) for x, y, wt in scaled] == edges


def test_gadget_signed_degree_is_k_plus_one():
    # as polynomials in k, read from the table: it holds for every k
    assert set(GADGETS) == set("PCE")
    for kind, edges in GADGETS.items():
        for x, y, coeffs in edges:
            assert {x, y} <= set("+-ab") and x != y
            # a nonzero polynomial of degree <= 2 with nonnegative
            # coefficients, so positive at every k > 0
            assert len(coeffs) == 3 and all(isinstance(c, int) and c >= 0 for c in coeffs)
            assert any(coeffs)
        for pole in "+-":
            at_pole = [coeffs for x, y, coeffs in edges if pole in (x, y)]
            assert [sum(c) for c in zip(*at_pole)] == [1, 1, 0]  # k + 1
    for kind in "PCE":
        for k in (Rat(1), Rat(5, 2)):
            edges, scale = build_module_gadget(kind, k)
            for pole in "+-":
                deg = Rat(sum(w for x, y, w in edges if pole in (x, y)), scale)
                assert deg == k + 1


def test_gadget_rejects_unknown_kind():
    with pytest.raises(ParameterError, match="unknown module kind"):
        build_module_gadget("X", 1)


# ---------------------------------------------------------------- assembly


def test_eee_is_weight2_triangle():
    g = ring("EEE")
    assert g.n == 3 and g.edge_count == 3
    assert all(w == 2 for _, _, w in g.edges())


def test_known_pair_sizes():
    g1, g2 = ring("PPCCPPPC"), ring("CCPPCCCP")
    assert (g1.n, g1.edge_count) == (24, 27)
    assert (g2.n, g2.edge_count) == (24, 29)


@given(words, ks)
def test_vertex_and_edge_counts(w, k):
    g = assemble_ring(w, k)
    assert g.n == w.tau + 2 * (w.ell + w.m) == w.n
    assert g.edge_count == w.tau + 2 * w.ell + 3 * w.m
    assert g.is_connected()


@given(words, ks)
def test_degree_invariants(w, k):
    g = assemble_ring(w, k)
    for i, letter in enumerate(w):
        assert degree(g, g.signed[i]) == 2 * (k + 1)
        if letter == "P":
            a, b = g.unsigned[i]
            assert degree(g, a) == k and degree(g, b) == k
        elif letter == "C":
            a, b = g.unsigned[i]
            assert degree(g, a) == k + k * k and degree(g, b) == k + k * k


def ring_reference(w, k):
    """G(w) built the general way: the rational weights of
    `build_module_gadget` placed on the ring layout, through the rational
    constructor."""
    k = Rat(k)
    signed, unsigned, n = [], [], 0
    for letter in w:
        signed.append(n)
        unsigned.append((n + 1, n + 2) if letter in "PC" else None)
        n += 3 if letter in "PC" else 1
    edges = []
    for i, letter in enumerate(w):
        labels = {"+": signed[i], "-": signed[(i + 1) % w.tau]}
        if unsigned[i] is not None:
            labels["a"], labels["b"] = unsigned[i]
        gadget, scale = build_module_gadget(letter, k)
        edges += [(labels[x], labels[y], Rat(wt, scale)) for x, y, wt in gadget]
    return WeightedGraph(n, edges, word=w, k=k, signed=signed, unsigned=unsigned)


@given(st.text(alphabet="PCE", min_size=3, max_size=8).map(parse_word),
       st.sampled_from([Rat(1), Rat(2), Rat(1, 2), Rat(7, 3), Rat(13, 11), Rat(10**12, 7)]))
@settings(max_examples=150, deadline=None)
def test_assemble_ring_matches_the_rational_constructor(w, k):
    g, ref = assemble_ring(w, k), ring_reference(w, k)
    assert integer_form(g) == integer_form(ref)
    assert (g.word, g.k, g.signed, g.unsigned) == (ref.word, ref.k, ref.signed, ref.unsigned)
    assert list(g.edges()) == list(ref.edges())
    for fmt in ("json", "dot", "csv"):
        assert export_graph(g, fmt) == export_graph(ref, fmt)


def test_assemble_ring_reads_the_gadget_definition(monkeypatch):
    # C's a-b weight k^2 mutated to k must reach the assembled ring
    w, k = parse_word("PCE"), Rat(7, 3)
    before = assemble_ring(w, k)
    monkeypatch.setitem(graphs.GADGETS, "C", tuple(
        (x, y, (0, 1, 0) if {x, y} == {"a", "b"} else coeffs) for x, y, coeffs in GADGETS["C"]))
    after = assemble_ring(w, k)
    a, b = before.unsigned[1]
    assert before.weight(a, b) == k * k and after.weight(a, b) == k
    assert integer_form(after) != integer_form(before)
    assert export_graph(after, "csv") != export_graph(before, "csv")


# ---------------------------------------------------------------- matrices


def star_k13():
    return WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])


def test_laplacian_star():
    L = normalized_laplacian(star_k13())
    assert L[0, 0] == 1.0
    assert L[0, 1] == pytest.approx(-1 / math.sqrt(3))


def test_laplacian_weighted_triangle():
    L = normalized_laplacian(ring("EEE"))
    assert L[0, 1] == pytest.approx(-0.5)


def test_laplacian_single_edge_weight_cancels():
    g = WeightedGraph(2, [(0, 1, 5)])
    L = normalized_laplacian(g)
    assert np.allclose(L, [[1, -1], [-1, 1]])


def test_laplacian_rejects_isolated_vertex():
    g = WeightedGraph(3, [(0, 1, 1)])
    with pytest.raises(DegreeError):
        normalized_laplacian(g)


def test_random_walk_single_edge():
    assert random_walk_matrix(WeightedGraph(2, [(0, 1, 3)])) == [
        [0, 1],
        [1, 0],
    ]


def test_random_walk_triangle():
    walk = random_walk_matrix(ring("EEE"))
    assert walk[0][1] == Rat(1, 2) and walk[0][0] == 0


def test_random_walk_path_middle_row():
    g = WeightedGraph(3, [(0, 1, 1), (1, 2, 1)])
    walk = random_walk_matrix(g)
    assert walk[1] == [Rat(1, 2), 0, Rat(1, 2)]


@given(words, ks)
def test_random_walk_rows_sum_to_one(w, k):
    for row in random_walk_matrix(assemble_ring(w, k)):
        assert sum(row) == 1


def laplacian_reference(g):
    """L from the rational formula: -sqrt(float(w^2 / (d_u d_v))) per edge."""
    L = np.eye(g.n)
    for u, v, w in g.edges():
        L[u, v] = L[v, u] = -math.sqrt(float(w * w / (degree(g, u) * degree(g, v))))
    return L


@pytest.mark.parametrize("k", [Rat(1), Rat(7, 3), Rat(5, 7)])
def test_laplacian_bit_identical_to_rational_formula_on_rings(k):
    # one ring per class: rotations and reflections only relabel the graph
    for w in canonical_words(3, 7):
        g = assemble_ring(w, k)
        assert np.array_equal(normalized_laplacian(g), laplacian_reference(g)), w


@st.composite
def weighted_edge_lists(draw):
    """(n, edges) of connected graphs (a spanning path plus extra edges)
    whose weights have large, mostly coprime denominators."""
    n = draw(st.integers(2, 8))
    weight = st.builds(Rat, st.integers(1, 10**30), st.integers(10**15, 10**25))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] < p[1] - 1), max_size=n))
    edges = [(v, v + 1) for v in range(n - 1)] + sorted(pairs)
    return n, [(u, v, draw(weight)) for u, v in edges]


def weighted_graphs():
    return weighted_edge_lists().map(lambda drawn: WeightedGraph(*drawn))


@given(weighted_graphs())
@settings(max_examples=100, deadline=None)
def test_laplacian_bit_identical_to_rational_formula_on_random_graphs(g):
    assert g.scaled_degrees == [sum(g.scaled_adj[v].values()) for v in range(g.n)]
    assert np.array_equal(normalized_laplacian(g), laplacian_reference(g))


@given(weighted_edge_lists(), st.integers(1, 10**6))
@settings(max_examples=100, deadline=None)
def test_graph_gives_its_rational_weights_back(drawn, m):
    n, edges = drawn
    g = WeightedGraph(n, edges)
    assert list(g.edges()) == sorted(edges)
    assert all(g.weight(u, v) == w == g.weight(v, u) for u, v, w in edges)
    # one denominator, the lcm of the weight denominators, and integers over it
    assert g.scale == math.lcm(*(w.denominator for *_, w in edges))
    assert all(type(x) is int for x in [*g.scaled_weights.values(), *g.scaled_degrees])
    assert g.scaled_degrees == [
        sum(x for key, x in g.scaled_weights.items() if v in key) for v in range(n)
    ]
    # the same integers over any multiple of the scale give the same form back
    edges_m = [(u, v, x * m) for (u, v), x in g.scaled_weights.items()]
    assert integer_form(WeightedGraph(n, edges_m, scale=g.scale * m)) == integer_form(g)


def test_laplacian_scaling_invariance():
    g = ring("PCE", Rat(7, 3))
    scaled = WeightedGraph(g.n, [(u, v, w * 5) for u, v, w in g.edges()])
    assert np.array_equal(normalized_laplacian(g), normalized_laplacian(scaled))


@pytest.mark.parametrize("n, edges, scale, error, message", [
    (2, [(1, 1, 1)], None, ShapeError, "self-loop at vertex 1"),
    (2, [(0, 2, 1)], None, ShapeError, r"edge \(0,2\) out of range for n=2"),
    (2, [(0, 1, -1)], None, ParameterError, r"edge \(0,1\) has non-positive weight -1"),
    (2, [(0, 1, 1), (1, 0, 2)], None, ShapeError, r"duplicate edge \(0, 1\)"),
    # n and scale are checked before any edge is read, the self-loop included
    (-1, [(0, 0, 1)], None, ShapeError, "negative vertex count -1"),
    (2, [(0, 0, 1)], -2, ParameterError, "scale must be positive, got -2"),
    (2, [(0, 1, 1)], 0, ParameterError, "scale must be positive, got 0"),
])
def test_graph_rejects_malformed_input(n, edges, scale, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        WeightedGraph(n, edges, scale=scale)


# ---------------------------------------------------------------- subgraph


def embeds(w1, w2, k=1):
    return ring_embeds(parse_word(w1), parse_word(w2), k)


def test_subgraph_ppp_in_ccc():
    assert embeds("PPP", "CCC")


def test_subgraph_known_pair():
    assert embeds("PPCCPPPC", "CCPPCCCP")


def test_subgraph_ccc_not_in_ppp():
    assert not embeds("CCC", "PPP")


def test_subgraph_compares_weights_over_one_denominator():
    # at k = 7/3 PPP has scale 3 and CCC scale 9; the word rule compares
    # the rows over q^2, and the graph reference over the lcm of the scales
    g1, g2 = ring("PPP", Rat(7, 3)), ring("CCC", Rat(7, 3))
    assert (g1.scale, g2.scale) == (3, 9)
    assert subgraph_after_symmetry(g1, g2)
    assert embeds("PPP", "CCC", Rat(7, 3))


def test_subgraph_requires_same_tau():
    with pytest.raises(ShapeError):
        embeds("PPP", "PPPP")
    with pytest.raises(ShapeError):
        subgraph_after_symmetry(ring("PPP"), ring("PPPP"))


def test_subgraph_rotated_alignment():
    # ECP is a reflected rotation of PCE: identical graph up to relabeling
    assert embeds("PCE", "ECP")
    assert embeds("PCE", "CCE")


def test_subgraph_rejects_k_at_most_0():
    for k in (0, -2):
        with pytest.raises(ParameterError, match=f"^module parameter k must be positive, got {k}$"):
            embeds("PPP", "CCC", k)


# GADGETS rows patched as (kind, edit of its row), and the pairs w in
# toggle(w) that the graph reference finds at each k of KS (the other way
# round it finds none).  C's a-b weight k^2 -> k keeps P in C; P's +/-
# weight 1 -> k breaks it but at k = 1; with - b weight 1 in P and C, both
# rows differ from their reflections, so at k != 1 only forward alignments
# fit (a rule that ignored the orientation would find 211); a P whose row
# is E's keeps its unsigned pair, so it still does not fit on E
KS = (Rat(1), Rat(7, 3), Rat(2), Rat(1, 2))
PATCHED_ROWS = {
    "today": ({}, (211, 211, 211, 211)),
    "C a-b k": ({"C": lambda row: row[:3] + (("a", "b", (0, 1, 0)),)}, (211, 211, 211, 211)),
    "P +- k": ({"P": lambda row: (row[0], ("+", "-", (0, 1, 0)), row[2])}, (211, 0, 0, 0)),
    "P C -b 1": ({"P": lambda row: row[:2] + (("-", "b", (1, 0, 0)),),
                  "C": lambda row: row[:2] + (("-", "b", (1, 0, 0)), row[3])},
                 (211, 109, 109, 109)),
    "P as E": ({"P": lambda row: (("+", "-", (1, 1, 0)),)}, (0, 0, 0, 0)),
}


@pytest.mark.parametrize("patch", PATCHED_ROWS)
def test_word_rule_matches_the_graph_reference(monkeypatch, patch):
    edits, expected_hits = PATCHED_ROWS[patch]
    for kind, edit in edits.items():
        monkeypatch.setitem(graphs.GADGETS, kind, edit(GADGETS[kind]))
    pairs = [w for w, trivial in toggle_classes(3, 8) if not trivial]
    assert len(pairs) * len(KS) == 1572
    hits = []
    for k in KS:
        found = [0, 0]
        for w in pairs:
            wt = toggle(w)
            g, gt = assemble_ring(w, k), assemble_ring(wt, k)
            for i, (a, b, ga, gb) in enumerate(((w, wt, g, gt), (wt, w, gt, g))):
                expected = subgraph_after_symmetry(ga, gb)
                assert ring_embeds(a, b, k) == expected, (a, b, k)
                found[i] += expected
        hits.append(tuple(found))
    assert hits == [(h, 0) for h in expected_hits]


@given(words, ks)
def test_word_edge_count_is_the_ring_edge_count(w, k):
    assert ring_edge_count(w) == assemble_ring(w, k).edge_count


# ---------------------------------------------------------------- export


def test_export_csv_triangle():
    out = export_graph(ring("EEE"), "csv")
    assert out.splitlines() == ["0,1,2/1", "0,2,2/1", "1,2,2/1"]


def test_export_dot_single_edge():
    out = export_graph(WeightedGraph(2, [(0, 1, Rat(1, 2))]), "dot")
    assert '0 -- 1 [label="1/2"]' in out


def test_export_json_round_trip():
    payload = json.loads(export_graph(ring("EEE"), "json"))
    assert payload["n"] == 3 and len(payload["edges"]) == 3
    assert payload["word"] == "EEE" and payload["k"] == "1/1"
    assert all(w == "2/1" for _, _, w in payload["edges"])


def test_export_unknown_format():
    with pytest.raises(FormatError):
        export_graph(ring("EEE"), "yaml")


def test_export_deterministic():
    g = ring("PPCCPPPC")
    assert export_graph(g, "json") == export_graph(ring("PPCCPPPC"), "json")


# ------------------------------------------------------ non-isomorphism witness


def toggle_pairs(tau_max, k):
    for w, trivial in toggle_classes(3, tau_max):
        if not trivial:
            yield w, assemble_ring(w, k), assemble_ring(toggle(w), k)


@pytest.mark.parametrize("k", [Rat(1), Rat(2), Rat(7, 3)])
def test_every_toggle_pair_has_a_witness(k):
    witnesses = [non_isomorphism_witness(g1, g2) for _, g1, g2 in toggle_pairs(7, k)]
    assert (witnesses.count("edge_count"), witnesses.count("wl"), len(witnesses)) == (148, 13, 161)


def test_wl_separates_equal_edge_counts():
    g1, g2 = ring("CECPP"), ring("PEPCC")
    assert g1.edge_count == g2.edge_count == 15
    assert non_isomorphism_witness(g1, g2) == "wl"


def test_wl_compares_weights_over_one_denominator():
    # the same integers over scales 3 and 9: equal edge counts, unequal weights
    g1 = WeightedGraph(3, [(0, 1, Rat(1, 3)), (1, 2, Rat(2, 3))])
    g2 = WeightedGraph(3, [(0, 1, Rat(1, 9)), (1, 2, Rat(2, 9))])
    assert g1.scaled_weights == g2.scaled_weights and (g1.scale, g2.scale) == (3, 9)
    assert non_isomorphism_witness(g1, g2) == "wl"


@given(words, ks, st.randoms(use_true_random=False))
def test_no_witness_for_a_relabelled_graph(w, k, rnd):
    # an isomorphic copy: vertices permuted, and the ring rotated and reflected
    g = assemble_ring(w, k)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    shuffled = WeightedGraph(g.n, [(perm[u], perm[v], x) for u, v, x in g.edges()])
    i = rnd.randrange(w.tau)
    turned = assemble_ring(parse_word((w.letters[i:] + w.letters[:i])[::-1]), k)
    assert non_isomorphism_witness(g, shuffled) is None
    assert non_isomorphism_witness(g, turned) is None


@pytest.mark.parametrize("k", [Rat(1), Rat(7, 3)])
def test_witnessed_pairs_are_not_isomorphic(k):
    nx = pytest.importorskip("networkx")

    def as_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_weighted_edges_from(g.edges())
        return h

    same_weight = nx.algorithms.isomorphism.categorical_edge_match("weight", None)
    pairs = list(toggle_pairs(6, k))
    assert len(pairs) == 69
    for w, g1, g2 in pairs:
        assert non_isomorphism_witness(g1, g2) is not None
        assert not nx.is_isomorphic(as_nx(g1), as_nx(g2), edge_match=same_weight), w
