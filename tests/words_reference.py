"""The 3^tau word path, as the order reference for the enumeration, and
pairwise cyclic equivalence of words, for the tests."""

import itertools

from cospec.words import ALPHABET, Word, canonical_form, is_self_toggle, toggle


def _variants(w: Word):
    """All rotations of w and of its reversal, as strings."""
    for s in (w.letters, w.letters[::-1]):
        for i in range(len(s)):
            yield s[i:] + s[:i]


def cyclic_equivalent(a: Word, b: Word) -> bool:
    """True iff b is a rotation or reflected rotation of a."""
    return a.tau == b.tau and b.letters in set(_variants(a))


def all_words(tau: int):
    """All 3^tau words of length tau, in lexicographic order."""
    for letters in itertools.product(ALPHABET, repeat=tau):
        yield Word("".join(letters))


def canonical_words(tau_min: int, tau_max: int):
    """Canonical representatives of all cyclic classes with tau in range,
    by canonicalising every word: each class in order of its first word."""
    for tau in range(tau_min, tau_max + 1):
        seen = set()
        for w in all_words(tau):
            c = canonical_form(w)
            if c.letters not in seen:
                seen.add(c.letters)
                yield c


def toggle_classes(tau_min: int, tau_max: int):
    """(w, is_self_toggle(w)) for the classes of `canonical_words` whose
    toggle partner's class did not come earlier."""
    partners = set()
    for w in canonical_words(tau_min, tau_max):
        if w not in partners:
            partners.add(canonical_form(toggle(w)))
            yield w, is_self_toggle(w)
