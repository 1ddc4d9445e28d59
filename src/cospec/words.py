"""Cyclic words over the module alphabet {P, C, E}.

A word indexes one graph of the family; toggling swaps the roles of P
and C.  Words are stored linearly; the cyclic symmetry is handled by
canonical_form, the least spelling among all rotations and reflected
rotations, which names a class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AlphabetError, LengthError

ALPHABET = "PCE"
_TOGGLE = str.maketrans("PC", "CP")

MIN_LENGTH = 3


@dataclass(frozen=True)
class Word:
    """A cyclic module word; letters is the chosen linear spelling."""

    letters: str

    def __post_init__(self):
        if len(self.letters) < MIN_LENGTH:
            raise LengthError(
                f"word {self.letters!r} has length {len(self.letters)}, need >= {MIN_LENGTH}"
            )
        bad = set(self.letters) - set(ALPHABET)
        if bad:
            raise AlphabetError(f"illegal letters {sorted(bad)} in {self.letters!r}")

    @property
    def tau(self) -> int:
        return len(self.letters)

    @property
    def ell(self) -> int:
        """Number of P modules."""
        return self.letters.count("P")

    @property
    def m(self) -> int:
        """Number of C modules."""
        return self.letters.count("C")

    @property
    def n(self) -> int:
        """Vertex count of G(W): one signed vertex per module, two more per P or C."""
        return self.tau + 2 * (self.ell + self.m)

    def __str__(self) -> str:
        return self.letters

    def __iter__(self):
        return iter(self.letters)


def parse_word(text: str) -> Word:
    """Parse a word string (case-insensitive) into a Word."""
    if not isinstance(text, str):
        raise AlphabetError(f"expected a string, got {type(text).__name__}")
    return Word(text.strip().upper())


def toggle(w: Word) -> Word:
    """Swap every P with C and vice versa; E is fixed."""
    return Word(w.letters.translate(_TOGGLE))


def _variants(w: Word):
    """All rotations of w and of its reversal, as strings."""
    for s in (w.letters, w.letters[::-1]):
        for i in range(len(s)):
            yield s[i:] + s[:i]


def canonical_form(w: Word) -> Word:
    """Lexicographically least among all rotations and reflected rotations."""
    return Word(min(_variants(w)))


def is_self_toggle(w: Word) -> bool:
    """True iff toggle(w) is a rotation or reflected rotation of w, so that
    G(w) and G(toggle(w)) are the same graph up to relabelling."""
    return canonical_form(toggle(w)) == canonical_form(w)


def all_words(tau: int):
    """All 3^tau words of length tau, in lexicographic order."""
    for letters in itertools.product(ALPHABET, repeat=tau):
        yield Word("".join(letters))


def canonical_words(tau_min: int, tau_max: int):
    """Canonical representatives of all cyclic classes with tau in range."""
    for tau in range(tau_min, tau_max + 1):
        seen = set()
        for w in all_words(tau):
            c = canonical_form(w)
            if c.letters not in seen:
                seen.add(c.letters)
                yield c


def toggle_classes(tau_min: int, tau_max: int):
    """One canonical word per unordered pair {w, toggle(w)} of classes, in
    canonical_words order: a class is left out when its toggle partner's
    class came earlier.  A self-toggle class is its own pair."""
    partners = set()
    for w in canonical_words(tau_min, tau_max):
        if w not in partners:
            partners.add(canonical_form(toggle(w)))
            yield w
