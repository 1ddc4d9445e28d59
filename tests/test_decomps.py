import pytest
from hypothesis import given, settings, strategies as st

from cospec import decomps
from cospec.decomps import charpoly_via_decompositions
from cospec.errors import BudgetError, ParameterError
from cospec.graphs import WeightedGraph, assemble_ring
from cospec.linalg import charpoly_exact
from cospec.rationals import Rat
from cospec.words import parse_word
from decomps_reference import (
    Decomposition,
    _decomposition,
    classify_long,
    decomposition_term,
    enumerate_decompositions,
    long_cycle_closed_form,
    long_cycle_multinomial_term,
    long_part_bruteforce,
    long_terms_by_config,
)
from polynomial_reference import Polynomial

small_words = st.text(alphabet="PCE", min_size=3, max_size=4).map(parse_word)
ks = st.sampled_from([Rat(1), Rat(2), Rat(1, 2)])


def ring(word, k=1):
    return assemble_ring(parse_word(word), k)


# ------------------------------------------------------------- enumeration


def test_single_edge_two_decompositions():
    g = WeightedGraph(2, [(0, 1, 1)])
    ds = list(enumerate_decompositions(g))
    assert len(ds) == 2
    assert Decomposition((), ()) in ds
    assert Decomposition(((0, 1),), ()) in ds


def test_triangle_five_decompositions():
    ds = list(enumerate_decompositions(ring("EEE")))
    assert len(ds) == 5
    assert sum(1 for d in ds if d.cycles) == 1
    assert sum(1 for d in ds if d.edges) == 3


def test_four_cycle_eight_decompositions():
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    ds = list(enumerate_decompositions(g))
    # empty + 4 single edges + 2 perfect matchings + the 4-cycle
    assert len(ds) == 8
    assert sum(1 for d in ds if len(d.edges) == 2) == 2


def test_decompositions_are_unique():
    g = ring("PCC")
    ds = list(enumerate_decompositions(g))
    assert len(ds) == len(set(ds))


def test_budget_enforced():
    with pytest.raises(BudgetError):
        list(enumerate_decompositions(ring("PPC"), budget=3))
    with pytest.raises(BudgetError):
        list(enumerate_decompositions(ring("C" * 11)))  # n = 33 > 30


def test_budget_counts_every_decomposition():
    g = ring("EEE")  # a triangle has N = 5 decompositions
    assert charpoly_via_decompositions(g, budget=5) == charpoly_exact(g)
    with pytest.raises(BudgetError):
        charpoly_via_decompositions(g, budget=4)


def test_vertex_limit_raised_before_scaling(monkeypatch):
    def scale(g):
        raise AssertionError("weights scaled for a graph over the vertex limit")

    monkeypatch.setattr(decomps, "_scale", scale)
    g = ring("C" * 11)  # n = 33 > 30
    for run in (charpoly_via_decompositions, long_terms_by_config,
                lambda g: list(enumerate_decompositions(g))):
        with pytest.raises(BudgetError):
            run(g)


# ------------------------------------------------------------- terms


def test_term_empty_decomposition():
    g = ring("EEE")
    d = Decomposition((), ())
    assert decomposition_term(d, g) == (3, 1)


def test_term_single_weighted_edge():
    g = ring("EEE")  # k=1 triangle, weights 2, degrees 4
    d = Decomposition(((0, 1),), ())
    assert decomposition_term(d, g) == (1, Rat(-1, 4))


def test_term_triangle_cycle():
    g = ring("EEE")
    d = Decomposition((), ((0, 1, 2),))
    assert decomposition_term(d, g) == (0, Rat(1, 4))


def test_even_cycle_sign():
    g = WeightedGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    d = Decomposition((), ((0, 1, 2, 3),))
    assert d.even_cycle_count() == 1
    # -2 * 1 / (2*2*2*2)
    assert decomposition_term(d, g) == (0, Rat(-1, 8))


big_weights = st.builds(Rat, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def weighted_graphs(draw):
    """Up to 6 vertices, any edge set (isolated vertices too), weights p/q <= 10^6."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return WeightedGraph(n, [(u, v, draw(big_weights)) for u, v in chosen])


def walk_terms(g):
    """(decomposition, j, x / P) for every leaf of the integer walk."""
    leaves = []
    common = decomps._walk(
        g, decomps.DEFAULT_BUDGET,
        lambda j, x, parts: leaves.append((_decomposition(parts), j, x)),
    )
    return [(d, j, Rat(x, common)) for d, j, x in leaves]


@pytest.mark.parametrize("word,k", [("EEE", 1), ("PCE", Rat(7, 3)), ("CCC", 2),
                                    ("PCPC", Rat(2, 5))])
def test_walk_terms_match_decomposition_term_on_rings(word, k):
    g = ring(word, k)
    for d, j, scalar in walk_terms(g):
        assert (j, scalar) == decomposition_term(d, g)


@given(weighted_graphs())
@settings(max_examples=40, deadline=None)
def test_walk_terms_match_decomposition_term_on_random_graphs(g):
    for d, j, scalar in walk_terms(g):
        assert (j, scalar) == decomposition_term(d, g)


# ------------------------------------------------------------- oracle sums


def test_charpoly_via_decompositions_eee():
    p = charpoly_via_decompositions(ring("EEE"))
    assert p == Polynomial((0, Rat(9, 4), -3, 1))


def test_charpoly_via_decompositions_single_edge():
    g = WeightedGraph(2, [(0, 1, Rat(7, 2))])
    assert charpoly_via_decompositions(g) == Polynomial((0, -2, 1))  # t(t-2)


def test_oracle_matches_exact_ppp():
    g = ring("PPP")
    assert charpoly_via_decompositions(g) == charpoly_exact(g)


@given(small_words, ks)
@settings(max_examples=20, deadline=None)
def test_oracle_matches_exact(w, k):
    g = assemble_ring(w, k)
    assert charpoly_via_decompositions(g) == charpoly_exact(g)


# ------------------------------------------------------------- long cycles


def test_classify_triangle_cycle_is_long():
    g = ring("EEE")
    cls = classify_long(Decomposition((), ((0, 1, 2),)), g)
    assert cls.is_long and (cls.h, cls.i, cls.j) == (0, 0, 0)


def test_classify_empty_not_long():
    assert not classify_long(Decomposition((), ()), ring("EEE")).is_long


def test_classify_ccc_with_unsigned_edges():
    g = ring("CCC")  # signed 0,3,6; unsigned pairs (1,2),(4,5),(7,8)
    d = Decomposition(((1, 2), (4, 5), (7, 8)), ((0, 3, 6),))
    cls = classify_long(d, g)
    assert cls.is_long
    assert (cls.h, cls.i, cls.j) == (0, 3, 0)
    assert cls.c_tags == ("signed+unsigned-edge",) * 3


def test_long_decompositions_force_p_and_e_configs():
    g = ring("PEC")
    for d in enumerate_decompositions(g):
        cls = classify_long(d, g)  # raises if a forced config is violated
        if cls.is_long:
            assert cls.h + cls.i + cls.j == g.word.m


def test_nonlong_cycles_stay_inside_modules():
    # without a long cycle, only isolated edges and per-module 4-cycles occur
    g = ring("CCCC")
    for d in enumerate_decompositions(g):
        if classify_long(d, g).is_long:
            continue
        for cyc in d.cycles:
            assert len(cyc) == 4
            modules = [
                idx
                for idx, pair in enumerate(g.unsigned)
                if pair is not None and set(pair) <= set(cyc)
            ]
            assert len(modules) == 1


def test_long_part_eee():
    assert long_part_bruteforce(ring("EEE")) == Polynomial.constant(Rat(1, 4))


def test_long_part_ppp():
    # closed form (t-1)^6 / 32 at tau=3, ell=3, m=0, k=1
    expected = Polynomial.t_minus_one_power(6).scale(Rat(1, 32))
    assert long_part_bruteforce(ring("PPP")) == expected


@given(small_words, st.sampled_from([Rat(1), Rat(2)]))
@settings(max_examples=20, deadline=None)
def test_long_part_matches_closed_form(w, k):
    g = assemble_ring(w, k)
    assert long_part_bruteforce(g) == long_cycle_closed_form(w.tau, w.ell, w.m, k)


# ------------------------------------------------------------- closed form


def test_closed_form_values():
    assert long_cycle_closed_form(3, 0, 0, Rat(5)) == Polynomial.constant(Rat(1, 4))
    assert long_cycle_closed_form(4, 0, 0, Rat(3)) == Polynomial.constant(Rat(-1, 8))


def test_closed_form_toggle_invariant():
    for tau, ell, m in [(5, 2, 1), (6, 4, 2), (7, 0, 3)]:
        k = Rat(7, 3)
        assert long_cycle_closed_form(tau, ell, m, k) == long_cycle_closed_form(
            tau, m, ell, k
        )


def test_closed_form_rejects_bad_args():
    with pytest.raises(ParameterError):
        long_cycle_closed_form(2, 0, 0, 1)
    with pytest.raises(ParameterError):
        long_cycle_closed_form(3, 2, 2, 1)
    with pytest.raises(ParameterError):
        long_cycle_closed_form(3, 0, 0, 0)


@pytest.mark.parametrize("word,k", [("CCC", Rat(1)), ("CCC", Rat(2)), ("CCCC", Rat(2))])
def test_multinomial_grouping(word, k):
    w = parse_word(word)
    g = assemble_ring(w, k)
    grouped = long_terms_by_config(g)
    m = w.m
    expected_keys = {(h, i, m - h - i) for h in range(m + 1) for i in range(m - h + 1)}
    assert set(grouped) == expected_keys
    for (h, i, j), poly in grouped.items():
        assert poly == long_cycle_multinomial_term(w.tau, w.ell, m, k, h, i, j)
