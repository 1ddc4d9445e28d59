"""Acceptance suite: one test per criterion, one printed line each.

The heavy sweeps cache characteristic polynomials per cyclic class:
rotations and reflections of a word relabel the same graph, so the
polynomial only depends on the canonical form (spot-checked below).
"""

from functools import lru_cache

import numpy as np

from cospec.blowup import blow_up, is_simple, scale_weights, simple_blowup_recipe
from cospec.graphs import (
    WeightedGraph,
    assemble_ring,
    eigenvalues_numeric,
    normalized_laplacian,
    subgraph_after_symmetry,
)
from cospec.rationals import Rat
from cospec.transfer import certify_identities
from cospec.words import Word, canonical_form, canonical_words, parse_word, toggle
from decomps_reference import (
    long_cycle_closed_form,
    long_cycle_multinomial_term,
    long_part_bruteforce,
    long_terms_by_config,
)
from polynomial_reference import (
    Polynomial,
    charpoly_exact,
    charpoly_via_decompositions,
    charpoly_via_transfer,
    short_part,
)
from transfer_reference import short_part_via_qx
from words_reference import all_words

K_SWEEP = (Rat(1), Rat(2), Rat(1, 2))


@lru_cache(maxsize=None)
def cached_charpoly(letters: str, k_str: str) -> Polynomial:
    return charpoly_exact(assemble_ring(Word(letters), Rat(k_str)))


def class_charpoly(w: Word, k) -> Polynomial:
    return cached_charpoly(canonical_form(w).letters, str(Rat(k)))


def report(number: int, ok: bool, text: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_toggling_cospectrality():
    # every word with 3 <= tau <= 7, k in {1, 2, 1/2}: exact equality
    words = 0
    for tau in range(3, 8):
        for w in all_words(tau):
            wt = toggle(w)
            for k in K_SWEEP:
                assert class_charpoly(w, k) == class_charpoly(wt, k)
            words += 1
    # spot-check that the canonical-class reduction is sound
    for letters in ("PPCCPPPC", "ECCEPPC", "PCECE"):
        w = parse_word(letters)
        assert charpoly_exact(assemble_ring(w, Rat(2))) == class_charpoly(w, Rat(2))
    report(1, words == 3267, f"{words} words x 3 k values, exact charpoly equality")


def test_criterion_2_decomposition_oracle():
    pairs = 0
    for w in canonical_words(3, 4):
        for k in (Rat(1), Rat(2)):
            g = assemble_ring(w, k)
            assert charpoly_via_decompositions(g) == class_charpoly(w, k)
            pairs += 1
    report(2, True, f"decomposition sum == exact charpoly on {pairs} (word, k) cases")


def test_criterion_3_long_cycle_closed_form():
    for w in canonical_words(3, 4):
        for k in (Rat(1), Rat(2)):
            g = assemble_ring(w, k)
            assert long_part_bruteforce(g) == long_cycle_closed_form(
                w.tau, w.ell, w.m, k
            )
    for letters in ("CCC", "CCCC"):
        w = parse_word(letters)
        for k in (Rat(1), Rat(2)):
            grouped = long_terms_by_config(assemble_ring(w, k))
            assert set(grouped) == {
                (h, i, w.m - h - i)
                for h in range(w.m + 1)
                for i in range(w.m - h + 1)
            }
            for (h, i, j), poly in grouped.items():
                assert poly == long_cycle_multinomial_term(w.tau, w.ell, w.m, k, h, i, j)
    report(3, True, "long-cycle part == closed form; multinomial terms match on CCC/CCCC")


def test_criterion_4_transfer_matrix():
    cases = 0
    for w in canonical_words(3, 6):
        for k in (Rat(1), Rat(2)):
            assert charpoly_via_transfer(w, k) == class_charpoly(w, k)
            assert short_part(w, k) == short_part_via_qx(w, k)
            cases += 1
    report(4, True, f"transfer == exact and 4x4 == 2x2 short part on {cases} cases")


def test_criterion_5_matrix_identities():
    entries = certify_identities()  # raises unless every identity holds
    assert len(entries) == 6 and all(e["holds"] for e in entries)
    report(5, True, f"Q/R/S/U identities proven as polynomials in (k, v): {len(entries)} "
                    "identities, every k > 0 and t not in {0, 1, 2}")


def test_criterion_6_worked_values():
    eee = Polynomial((0, Rat(9, 4), -3, 1))  # t^3 - 3t^2 + (9/4)t
    w = parse_word("EEE")
    g = assemble_ring(w, 1)
    assert charpoly_exact(g) == eee
    assert charpoly_via_decompositions(g) == eee
    assert charpoly_via_transfer(w, 1) == eee

    kpq = Polynomial((0, -2, 5, -4, 1))  # t(t-1)^2(t-2)
    k13 = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    k22 = WeightedGraph(4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
    for g in (k13, k22):
        assert charpoly_exact(g) == kpq
        assert np.allclose(eigenvalues_numeric(g), [0, 1, 1, 2], atol=1e-12)
    report(6, True, "EEE by all three methods; K_{1,3} and K_{2,2} spectra")


def test_criterion_7_known_pair():
    g1 = assemble_ring(parse_word("PPCCPPPC"), 1)
    g2 = assemble_ring(parse_word("CCPPCCCP"), 1)
    assert (g1.n, g2.n) == (24, 24)
    assert (g1.edge_count, g2.edge_count) == (27, 29)
    assert charpoly_exact(g1) == charpoly_exact(g2)
    gap = float(np.max(np.abs(eigenvalues_numeric(g1) - eigenvalues_numeric(g2))))
    assert gap <= 1e-9
    assert subgraph_after_symmetry(g1, g2)
    report(7, True, f"24 vertices, 27 vs 29 edges, eigenvalue gap {gap:.1e}")


def test_criterion_8_blowups():
    for k in (1, 2, 3):
        b1, b2 = simple_blowup_recipe(parse_word("EEEPCC"), k)
        assert is_simple(b1) and is_simple(b2)
        assert float(np.max(np.abs(eigenvalues_numeric(b1) - eigenvalues_numeric(b2)))) <= 1e-9

    g = assemble_ring(parse_word("PCE"), Rat(2))
    b = blow_up(g, {0: 2, 3: 3})
    expected = np.sort(np.concatenate([eigenvalues_numeric(g), np.ones(b.n - g.n)]))
    assert float(np.max(np.abs(eigenvalues_numeric(b) - expected))) <= 1e-9

    for c in (Rat(2), Rat(7, 3)):
        scaled = scale_weights(g, c)
        assert np.array_equal(normalized_laplacian(g), normalized_laplacian(scaled))
    report(8, True, "EEEPCC/EEECPP recipes simple+cospectral; pure blowup adds 1s; scaling exact")


def test_criterion_9_structural_invariants():
    checked = 0
    for w in canonical_words(3, 6):
        for k in K_SWEEP:
            g = assemble_ring(w, k)
            p = class_charpoly(w, k)
            assert p.is_monic() and p.degree == g.n
            assert p.coefficient(g.n - 1) == -g.n
            assert p.coefficient(0) == 0 and p.coefficient(1) != 0
            eigs = eigenvalues_numeric(g)
            assert eigs[0] >= -1e-9 and eigs[-1] <= 2 + 1e-9
            checked += 1
    report(9, True, f"monic/trace/kernel/range invariants on {checked} generated graphs")
