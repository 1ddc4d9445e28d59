import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cospec import decomps
from cospec.errors import BudgetError, ParameterError
from cospec.graphs import WeightedGraph, assemble_ring
from cospec.linalg import exact_u
from cospec.rationals import Rat
from cospec.transfer import transfer_u
from cospec.words import parse_word
from decomps_reference import (
    Decomposition,
    _decomposition,
    _walk,
    classify_long,
    decomposition_term,
    enumerate_decompositions,
    long_cycle_closed_form,
    long_cycle_multinomial_term,
    long_part_bruteforce,
    long_terms_by_config,
    oracle_u_by_leaves,
)
from polynomial_reference import Polynomial, charpoly_exact, charpoly_via_decompositions

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
    g = ring("C" * 11)  # n = 33 > 30

    def read(g):
        raise AssertionError("weights read for a graph over the vertex limit")

    monkeypatch.setattr(WeightedGraph, "scaled_adj", property(read), raising=False)
    for run in (charpoly_via_decompositions, long_terms_by_config,
                lambda g: list(enumerate_decompositions(g))):
        with pytest.raises(BudgetError):
            run(g)


def test_cycle_table_counts_against_the_budget():
    g = ring("CCCC")
    ds = list(enumerate_decompositions(g))
    assert len(ds) == 883
    assert sum(1 for d in ds if not d.edges and len(d.cycles) == 1) == 20
    # 20 cycles are 20 decompositions, so budget 19 is exceeded while the
    # cycles are found, before any leaf
    leaves = []
    with pytest.raises(BudgetError):
        _walk(g, 19, lambda j, x, parts: leaves.append(j))
    assert leaves == []


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
    common = _walk(
        g, decomps.DEFAULT_BUDGET,
        lambda j, x, parts: leaves.append((_decomposition(parts), j, x)),
    )
    return [(d, j, Rat(x, common)) for d, j, x in leaves]


def brute_force_decompositions(g):
    """Every edge subset whose components are each one edge or a cycle of
    length >= 3, as a frozenset of edges, found by trying every subset."""
    edges = sorted(g.scaled_weights)
    found = []
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            degree = Counter(v for edge in subset for v in edge)
            # at degrees <= 2 each component is a path or a cycle, and a path
            # is one edge exactly when no edge joins degrees 1 and 2
            if max(degree.values(), default=0) <= 2 and all(
                    (degree[u] == 1) == (degree[v] == 1) for u, v in subset):
                found.append(frozenset(subset))
    return found


@given(weighted_graphs())
@settings(max_examples=40, deadline=None)
def test_walk_gives_every_decomposition_once(g):
    walked = [frozenset(d.all_edges()) for d in enumerate_decompositions(g)]
    assert len(walked) == len(set(walked))
    assert set(walked) == set(brute_force_decompositions(g))


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


@given(weighted_graphs())
@settings(max_examples=60, deadline=None)
def test_oracle_sum_equals_the_leaf_by_leaf_sum(g):
    expected = oracle_u_by_leaves(g)
    assert decomps.oracle_u(g) == expected
    # at a budget of exactly the count, the radix is at its narrowest
    count = sum(1 for _ in enumerate_decompositions(g))
    assert decomps.oracle_u(g, budget=count) == expected


@pytest.mark.parametrize("m", [12, 15])
def test_radix_holds_coefficients_past_the_per_term_bound(m):
    # m disjoint edges: the charpoly is t^m (t - 2)^m = (u^2 - 1)^m, so the
    # coefficient binom(m, m // 2) exceeds 2^(n/3) P = 2^(2m/3) (P = 1); the
    # radix needs the count factor (2^m decompositions) in its bound
    g = WeightedGraph(2 * m, [(2 * i, 2 * i + 1, 1) for i in range(m)])
    coeffs = [0] * (2 * m + 1)
    coeffs[::2] = [(-1) ** (m - i) * math.comb(m, i) for i in range(m + 1)]
    assert max(coeffs) > 2 ** (2 * m // 3)
    assert decomps.oracle_u(g, budget=2 ** m) == (tuple(coeffs), 1) == exact_u(g)


def test_budget_boundary_is_the_decomposition_count():
    g = ring("CCCC")  # 883 decompositions, 20 of them single cycles
    assert decomps.oracle_u(g, budget=883) == oracle_u_by_leaves(g, budget=883) == exact_u(g)
    for run in (decomps.oracle_u, oracle_u_by_leaves):
        with pytest.raises(BudgetError, match=r"^more than 882 decompositions$"):
            run(g, budget=882)


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


@pytest.mark.parametrize("word", ["PCEPCEPC", "CCPCEPCE", "PPCCEECC", "PCPCPCPCP"])
@pytest.mark.parametrize("k", [Rat(1), Rat(7, 3)])
def test_oracle_matches_exact_and_transfer_up_to_n_27(word, k):
    w = parse_word(word)
    g = assemble_ring(w, k)
    assert g.n == (27 if word == "PCPCPCPCP" else 20)
    assert decomps.oracle_u(g) == exact_u(g) == transfer_u(w, k)[0]


@pytest.mark.parametrize("k", [Rat(1), Rat(7, 3)])
def test_oracle_matches_exact_and_transfer_at_the_vertex_limit(k):
    w = parse_word("PCPCPCPCPC")
    g = assemble_ring(w, k)
    assert g.n == decomps.MAX_VERTICES == 30
    assert decomps.oracle_u(g) == exact_u(g) == transfer_u(w, k)[0]


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
