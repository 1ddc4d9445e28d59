"""Cyclic words over the module alphabet {P, C, E}.

A word indexes one graph of the family; toggling swaps the roles of P
and C.  Words are stored linearly; the cyclic symmetry is handled by
canonical_form, the least spelling among all rotations and reflected
rotations, which names a class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import AlphabetError, LengthError

ALPHABET = "PCE"
_TOGGLE = str.maketrans("PC", "CP")
_SPELL = str.maketrans("012", ALPHABET)  # digits in P < C < E order

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


def _least_spelling(s: str) -> str:
    """The least string among all rotations of s and of its reversal; only
    those that start with s's least letter can be least."""
    low = min(s)
    return min(t[i:] + t[:i] for t in (s, s[::-1]) for i in range(len(s)) if t[i] == low)


def canonical_form(w: Word) -> Word:
    """Lexicographically least among all rotations and reflected rotations."""
    return Word(_least_spelling(w.letters))


def is_self_toggle(w: Word) -> bool:
    """True iff toggle(w) is a rotation or reflected rotation of w, so that
    G(w) and G(toggle(w)) are the same graph up to relabelling."""
    return canonical_form(toggle(w)) == canonical_form(w)


def canonical_words(tau_min: int, tau_max: int):
    """Canonical representatives of all cyclic classes with tau in range, in
    order of each class's least P < C < E spelling: the FKM necklaces (Ruskey,
    Savage & Wang 1992) over 0 < 1 < 2, Lyndon words repeated to length tau, kept
    when no rotation of their reversal is less, re-spelled as in canonical_form.
    A necklace starts with its least digit, so only the rotations of its
    reversal that start with that digit can be less."""
    for tau in range(tau_min, tau_max + 1):
        a = [-1]
        while a:
            a[-1] += 1
            if tau % len(a) == 0:
                s = "".join(map(str, a)) * (tau // len(a))
                r = s[::-1] * 2
                if all(s <= r[i:i + tau] for i in range(tau) if r[i] == s[0]):
                    yield Word(_least_spelling(s.translate(_SPELL)))
            a = (a * (tau // len(a) + 1))[:tau]
            while a and a[-1] == 2:
                a.pop()


def toggle_classes(tau_min: int, tau_max: int):
    """(w, is_self_toggle(w)) for one canonical word w per unordered pair
    {w, toggle(w)} of classes, in canonical_words order: a class is left out
    when its toggle partner's class came earlier (a self-toggle class is its own).
    Each length's table is built once per process and yielded from then on."""
    for tau in range(tau_min, tau_max + 1):
        yield from _toggle_table(tau)


@cache
def _toggle_table(tau: int) -> tuple[tuple[Word, bool], ...]:
    """toggle_classes(tau, tau) as a tuple. Toggling keeps a word's length,
    so a partner never falls in another length's table."""
    partners = set()
    table = []
    for w in canonical_words(tau, tau):
        if w.letters not in partners:
            partner = _least_spelling(w.letters.translate(_TOGGLE))
            partners.add(partner)
            table.append((w, partner == w.letters))
    return tuple(table)
