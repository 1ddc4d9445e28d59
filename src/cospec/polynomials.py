"""The integer hand-off of the three charpoly routes, and the exact
polynomials in t they are printed and returned as.

Each route gives its polynomial as u-coefficients over one denominator,
u = t - 1, as integers in lowest terms (`lowest_terms`): two such pairs
are equal exactly when the polynomials are.  `Polynomial` holds only what
the routes and the JSON read: the Taylor shift from u to t, degree,
coefficients, monicity, equality and rendering; it has no arithmetic.
"""

from __future__ import annotations

import math

from .rationals import Rat, rat_str

_ZERO = Rat(0)


def lowest_terms(coeffs, den) -> tuple:
    """(coeffs, den) with no trailing zero coefficient, den > 0 and no
    common factor left: the one integer form of sum_i coeffs[i] u^i / den."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = math.gcd(den, *cs)
    if den < 0:
        g = -g
    return tuple(c // g for c in cs), den // g


class Polynomial:
    """Immutable dense polynomial; coeffs[i] is the coefficient of t^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Rat) else Rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_u_coefficients(cls, coeffs, den=1) -> "Polynomial":
        """The polynomial sum_i coeffs[i] * (t - 1)^i / den, by a Taylor shift.

        Pascal-triangle form of the binomial expansion: only additions,
        so integer coefficients stay integers until the one division by
        den per coefficient.
        """
        a = list(coeffs)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] -= a[j + 1]
        return cls(a if den == 1 else [Rat(c, den) for c in a])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else _ZERO

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def to_json(self) -> list:
        """Coefficients as "p/q" strings, constant term first."""
        return [rat_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mono = "1" if i == 0 else ("t" if i == 1 else f"t^{i}")
            terms.append(f"({c})*{mono}" if i else f"({c})")
        return "Polynomial(" + " + ".join(terms) + ")"

