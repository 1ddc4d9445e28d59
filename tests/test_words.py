import pytest
from hypothesis import given, strategies as st

from cospec import words as words_module
from cospec.errors import AlphabetError, LengthError
from cospec.graphs import assemble_ring, ring_embeds
from cospec.words import (
    Word,
    canonical_form,
    canonical_words,
    is_self_toggle,
    parse_word,
    toggle,
    toggle_classes,
)
from graphs_reference import non_isomorphism_witness
import words_reference
from words_reference import all_words, cyclic_equivalent

words = st.text(alphabet="PCE", min_size=3, max_size=10).map(Word)


def test_parse_counts():
    w = parse_word("PPCCPPPC")
    assert (w.tau, w.ell, w.m) == (8, 5, 3)


def test_parse_all_e():
    w = parse_word("EEE")
    assert (w.tau, w.ell, w.m) == (3, 0, 0)


def test_parse_case_insensitive():
    assert parse_word("pCe").letters == "PCE"


def test_parse_too_short():
    with pytest.raises(LengthError):
        parse_word("PC")


def test_parse_bad_letter():
    with pytest.raises(AlphabetError):
        parse_word("PCX")


def test_toggle_known_pair():
    assert str(toggle(parse_word("PPCCPPPC"))) == "CCPPCCCP"


def test_toggle_fixes_e():
    assert str(toggle(parse_word("EEE"))) == "EEE"
    assert str(toggle(parse_word("PCE"))) == "CPE"


def test_cyclic_equivalent_rotation():
    assert cyclic_equivalent(parse_word("PCE"), parse_word("CEP"))


def test_cyclic_equivalent_reversal():
    assert cyclic_equivalent(parse_word("PCE"), parse_word("ECP"))


def test_cyclic_equivalent_different_counts():
    assert not cyclic_equivalent(parse_word("PPC"), parse_word("PCC"))


def test_canonical_frozen_values():
    # frozen from exhaustive rotation/reversal enumeration
    assert str(canonical_form(parse_word("CEP"))) == "CEP"
    assert str(canonical_form(parse_word("EEE"))) == "EEE"
    assert str(canonical_form(parse_word("CCPPCCCP"))) == "CCCPCCPP"


def test_canonical_class_count_tau3():
    # 27 words fall into 10 bracelet classes (frozen from enumeration)
    assert sum(1 for _ in canonical_words(3, 3)) == 10


def test_all_words_count():
    assert sum(1 for _ in all_words(4)) == 81


@given(words)
def test_toggle_involution(w):
    assert toggle(toggle(w)) == w


@given(words)
def test_toggle_swaps_counts(w):
    wt = toggle(w)
    assert (wt.tau, wt.ell, wt.m) == (w.tau, w.m, w.ell)


@given(words)
def test_canonical_idempotent(w):
    c = canonical_form(w)
    assert canonical_form(c) == c
    assert cyclic_equivalent(w, c)


@given(words)
def test_toggle_commutes_with_canonical(w):
    assert canonical_form(toggle(w)) == canonical_form(toggle(canonical_form(w)))


@given(words, st.integers(0, 9), st.booleans())
def test_canonical_constant_on_class(w, shift, flip):
    s = w.letters[::-1] if flip else w.letters
    shift %= len(s)
    v = Word(s[shift:] + s[:shift])
    assert cyclic_equivalent(w, v)
    assert canonical_form(v) == canonical_form(w)


def test_toggle_classes_cover_each_class_once():
    covered = []
    for w, _ in toggle_classes(3, 7):
        partner = canonical_form(toggle(w))
        covered += [w] if partner == w else [w, partner]
    assert sorted(c.letters for c in covered) == sorted(c.letters for c in canonical_words(3, 7))
    assert len(covered) == len(set(covered)) == 360


def test_toggle_classes_keep_canonical_order():
    assert [str(w) for w, _ in toggle_classes(3, 3)] == ["PPP", "CPP", "EPP", "CEP", "EEP", "EEE"]


@pytest.mark.parametrize("tau", range(3, 11))
def test_enumeration_matches_the_every_word_reference(tau):
    # classes, order and self-toggle flags, against canonicalising all 3^tau words
    assert list(canonical_words(tau, tau)) == list(words_reference.canonical_words(tau, tau))
    classes = list(toggle_classes(tau, tau))
    assert classes == list(words_reference.toggle_classes(tau, tau))
    assert all(trivial == is_self_toggle(w) for w, trivial in classes)


@pytest.mark.parametrize("tau_min, tau_max", [(3, 8), (5, 7)])
def test_toggle_classes_over_a_range_match_the_reference(tau_min, tau_max):
    # the per-length tables chain into one sequence, as one pass over the range would
    assert list(toggle_classes(tau_min, tau_max)) == list(
        words_reference.toggle_classes(tau_min, tau_max))


def test_toggle_classes_build_each_length_once(monkeypatch):
    lengths = []
    original = words_module.canonical_words

    def counted(tau_min, tau_max):
        lengths.append((tau_min, tau_max))
        return original(tau_min, tau_max)

    monkeypatch.setattr(words_module, "canonical_words", counted)
    words_module._toggle_table.cache_clear()
    first = list(toggle_classes(3, 6))
    second = list(toggle_classes(3, 6))
    assert len(first) == len(second) == 93
    assert all(a is b for pair, again in zip(first, second) for a, b in zip(pair, again))
    assert lengths == [(3, 3), (4, 4), (5, 5), (6, 6)]
    list(toggle_classes(5, 8))
    assert lengths[4:] == [(7, 7), (8, 8)]


def test_self_toggle_classes_tau7():
    # 38 of the 360 classes toggle to themselves; their two graphs are one
    # graph relabelled (an embedding between equal edge counts), so no
    # witness may separate them
    trivial = [w for w in canonical_words(3, 7) if is_self_toggle(w)]
    assert len(trivial) == 38
    assert {"EEE", "CEP", "CEEP", "CPCP"} <= {w.letters for w in trivial}
    for w in trivial:
        g, gt = assemble_ring(w, 2), assemble_ring(toggle(w), 2)
        assert g.edge_count == gt.edge_count
        assert ring_embeds(w, toggle(w), 2)
        assert non_isomorphism_witness(g, gt) is None


@given(words)
def test_is_self_toggle_is_a_class_property(w):
    assert is_self_toggle(w) == is_self_toggle(canonical_form(w)) == is_self_toggle(toggle(w))
