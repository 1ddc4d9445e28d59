"""Pairwise cyclic equivalence of words, for the tests."""

from cospec.words import Word, _variants


def cyclic_equivalent(a: Word, b: Word) -> bool:
    """True iff b is a rotation or reflected rotation of a."""
    return a.tau == b.tau and b.letters in set(_variants(a))
