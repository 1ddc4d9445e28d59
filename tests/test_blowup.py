import numpy as np
import pytest

from cospec import blowup
from cospec.blowup import (
    blow_up,
    is_simple,
    scale_weights,
    simple_blowup_recipe,
    solve_uniform_multiplicities,
)
from cospec.errors import ParameterError, RecipeError, ShapeError
from cospec.graphs import WeightedGraph, assemble_ring, eigenvalues_numeric, normalized_laplacian
from cospec.rationals import Rat
from cospec.words import MIN_LENGTH, Word, canonical_words, parse_word, toggle
from blowup_reference import recipe_by_chains, split_e_chain


def ring(word, k=1):
    return assemble_ring(parse_word(word), k)


def spectra_match(g1, g2, tol=1e-9):
    e1, e2 = eigenvalues_numeric(g1), eigenvalues_numeric(g2)
    return len(e1) == len(e2) and float(np.max(np.abs(e1 - e2))) <= tol


# ---------------------------------------------------------------- scaling


def test_scale_preserves_laplacian():
    g = ring("ECC", Rat(7, 3))
    for c in (Rat(2), Rat(7, 3)):
        scaled = scale_weights(g, c)
        assert all(scaled.weight(u, v) == w * c for u, v, w in g.edges())
        assert np.array_equal(normalized_laplacian(g), normalized_laplacian(scaled))


def test_scale_identity():
    g = ring("EEE")
    scaled = scale_weights(g, 1)
    assert list(scaled.edges()) == list(g.edges())


def test_scale_rejects_nonpositive():
    with pytest.raises(ParameterError):
        scale_weights(ring("EEE"), 0)


# ---------------------------------------------------------------- blow_up


def test_identity_blowup():
    g = ring("PCE")
    b = blow_up(g, {})
    assert b.n == g.n and list(b.edges()) == list(g.edges())


def test_edge_blowup_to_k22():
    g = WeightedGraph(2, [(0, 1, 4)])
    b = blow_up(g, {0: 2, 1: 2})
    assert b.n == 4 and b.edge_count == 4
    assert is_simple(b)


def test_ccc_unsigned_blowup_unit_weights():
    k = 2
    g = ring("CCC", k)
    mult = {v: k for pair in g.unsigned if pair for v in pair}
    b = blow_up(g, mult)
    # signed-unsigned edges k/(1*k), unsigned-unsigned k^2/(k*k)
    assert {w for _, _, w in b.edges()} == {Rat(1)}


def test_blowup_rejects_zero_multiplicity():
    with pytest.raises(ParameterError):
        blow_up(ring("EEE"), {0: 0})


def test_blowup_degree_division():
    g = ring("PCE", Rat(2))
    mult = {0: 3, 2: 2}
    b = blow_up(g, mult)
    offsets = np.cumsum([0] + [mult.get(v, 1) for v in range(g.n)])
    for v in range(g.n):
        r = mult.get(v, 1)
        for copy in range(r):
            assert Rat(b.scaled_degrees[offsets[v] + copy], b.scale) == Rat(
                g.scaled_degrees[v], g.scale) / r


def test_pure_blowup_spectrum_is_original_plus_ones():
    g = ring("PCE", Rat(2))
    b = blow_up(g, {0: 2, 1: 3, 4: 2})
    expected = np.sort(
        np.concatenate([eigenvalues_numeric(g), np.ones(b.n - g.n)])
    )
    assert np.max(np.abs(eigenvalues_numeric(b) - expected)) <= 1e-9


# ---------------------------------------------------------------- chains


def test_split_chain_parallel_paths():
    # path 0-1-2-3 with weight-2 edges becomes 2 disjoint unit paths
    g = WeightedGraph(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])
    s = split_e_chain(g, [0, 1, 2, 3])
    assert s.n == 2 + 2 * 2
    assert is_simple(s)
    assert Rat(s.scaled_degrees[0], s.scale) == 2 and Rat(s.scaled_degrees[1], s.scale) == 2


def test_split_chain_preserves_endpoint_degrees():
    g = ring("EEEPCC", 1)
    chain = [g.signed[0], g.signed[1], g.signed[2], g.signed[3]]
    s = split_e_chain(g, chain)
    assert Rat(s.scaled_degrees[0], s.scale) == Rat(g.scaled_degrees[g.signed[0]], g.scale)


def test_split_single_edge_chain_rejected():
    g = WeightedGraph(2, [(0, 1, 3)])
    with pytest.raises(ShapeError):
        split_e_chain(g, [0, 1])


def test_split_noninteger_weight_rejected():
    g = WeightedGraph(3, [(0, 1, Rat(5, 2)), (1, 2, Rat(5, 2))])
    with pytest.raises(ParameterError):
        split_e_chain(g, [0, 1, 2])


def test_split_branching_interior_rejected():
    g = WeightedGraph(4, [(0, 1, 2), (1, 2, 2), (1, 3, 1)])
    with pytest.raises(ShapeError):
        split_e_chain(g, [0, 1, 2])


# ---------------------------------------------------------------- recipe


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recipe_eeepcc(k):
    b1, b2 = simple_blowup_recipe(parse_word("EEEPCC"), k)
    assert is_simple(b1) and is_simple(b2)
    assert spectra_match(b1, b2)


def test_recipe_ppp_identity():
    b1, b2 = simple_blowup_recipe(parse_word("PPP"), 1)
    assert is_simple(b1) and b1.n == ring("PPP").n
    assert spectra_match(b1, b2)


def test_recipe_ccc_k3():
    b1, b2 = simple_blowup_recipe(parse_word("CCC"), 3)
    assert is_simple(b1) and is_simple(b2)
    assert b1.n == 3 + 6 * 3
    assert spectra_match(b1, b2)


def test_recipe_isolated_e_obstruction():
    with pytest.raises(RecipeError):
        simple_blowup_recipe(parse_word("ECC"), 1)


def test_recipe_rejects_noninteger_k():
    with pytest.raises(ParameterError):
        simple_blowup_recipe(parse_word("PPP"), Rat(1, 2))


def split_words(tau_max):
    """Every spelling (rotation or reflection) of every class with tau <= tau_max
    whose E modules all lie in runs of two or more, with at least one run."""
    for w in canonical_words(MIN_LENGTH, tau_max):
        spellings = {s[i:] + s[:i] for s in (w.letters, w.letters[::-1]) for i in range(w.tau)}
        for letters in sorted(spellings):
            runs = blowup._edge_module_runs(Word(letters))  # none for an all-E word
            if runs and all(len(run) >= 2 for run in runs):
                yield Word(letters)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_recipe_equals_the_general_chain_splitter(k):
    words = list(split_words(6))
    # runs that wrap past vertex 0 are included
    assert {"EEP", "EPE", "EEPE", "EPPE"} <= {w.letters for w in words}
    for w in words:
        want = recipe_by_chains(w, k), recipe_by_chains(toggle(w), k)
        for got, ref in zip(simple_blowup_recipe(w, k), want):
            assert (got.n, got.scale, got.scaled_weights) == (ref.n, ref.scale, ref.scaled_weights), (w, k)


def test_recipe_all_e_word():
    b1, b2 = simple_blowup_recipe(parse_word("EEEE"), 2)
    assert is_simple(b1) and spectra_match(b1, b2)


# ---------------------------------------------------------------- solver


def test_solver_scaled_ecc():
    g = scale_weights(ring("ECC", 1), 2)
    reps = solve_uniform_multiplicities(g)
    assert reps is not None
    b = blow_up(g, reps)
    assert is_simple(b)
    # cospectral with the scaled-and-blown toggled partner
    g2 = scale_weights(ring("EPP", 1), 2)
    b2 = blow_up(g2, solve_uniform_multiplicities(g2))
    assert is_simple(b2) and spectra_match(b, b2)


# ---------------------------------------------------------------- size limits


@pytest.mark.parametrize("build", [
    lambda: blow_up(ring("CCC", 2), {v: 3 for v in range(0, 9, 2)}),
    # at k = 1 every multiplicity is 1: the recipe's own split stage meets the limit first
    lambda: simple_blowup_recipe(parse_word("EEEPCC"), 1)[0],
])
def test_size_limits_count_the_graph_before_building_it(monkeypatch, build):
    g = build()
    monkeypatch.setattr(blowup, "MAX_BLOWUP_VERTICES", g.n)
    monkeypatch.setattr(blowup, "MAX_BLOWUP_EDGES", g.edge_count)
    assert build().edge_count == g.edge_count

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built past the size limit")

    for name, limit in (("MAX_BLOWUP_VERTICES", g.n), ("MAX_BLOWUP_EDGES", g.edge_count)):
        with monkeypatch.context() as m:
            m.setattr(blowup, name, limit - 1)
            m.setattr(blowup, "WeightedGraph", refuse)
            with pytest.raises(RecipeError, match=f"{g.n} vertices and {g.edge_count} edges"):
                build()


def test_solver_takes_the_least_r0():
    # every divisor of 36 solves the path; r0 = 1 fails on the 4-cycle, 2 works
    assert solve_uniform_multiplicities(WeightedGraph(3, [(0, 1, 36), (1, 2, 36)])) == {
        0: 1, 1: 36, 2: 1}
    cycle = WeightedGraph(4, [(0, 1, 6), (1, 2, 3), (2, 3, 2), (0, 3, 4)])
    assert solve_uniform_multiplicities(cycle) == {0: 2, 1: 3, 2: 1, 3: 2}


def test_solver_takes_unit_multiplicities_without_edges():
    # the one-vertex graph is simple as it stands, and so is the empty one
    assert solve_uniform_multiplicities(WeightedGraph(1, [])) == {0: 1}
    assert solve_uniform_multiplicities(WeightedGraph(0, [])) == {}


def test_solver_rejects_a_disconnected_graph():
    # propagation from vertex 0 would never reach the edge 2-3
    with pytest.raises(ShapeError, match="connected"):
        solve_uniform_multiplicities(WeightedGraph(4, [(0, 1, 1), (2, 3, 1)]))


def test_solver_no_solution():
    g = WeightedGraph(3, [(0, 1, 2), (1, 2, 3), (0, 2, 5)])
    assert solve_uniform_multiplicities(g) is None
