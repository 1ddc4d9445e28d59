"""Exact polynomials in t for the tests, and the routes' pairs as such.

`cospec` keeps every polynomial as integer u-coefficients over one
denominator, u = t - 1, and prints t only in its JSON (`t_json`).
`Polynomial` holds exact rational coefficients in t, with the arithmetic
the references and the tests build expected values with; the wrappers
below shift each route's (coeffs, den) pair into it.  `random_walk_matrix`
is D^-1 A as rationals, the matrix the tests eliminate over at single
points to check the exact route.
"""

import math

from cospec import decomps, linalg, transfer
from cospec.errors import DegreeError
from cospec.rationals import Rat, rat_str

_ZERO = Rat(0)


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

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def t_minus_one_power(cls, j: int) -> "Polynomial":
        """(t - 1)^j, from the binomial theorem."""
        return cls([(-1) ** (j - i) * math.comb(j, i) for i in range(j + 1)])

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

    def __call__(self, t):
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * Rat(t) + c
        return acc

    def __add__(self, other) -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = Rat(c)
        return Polynomial([a * c for a in self.coeffs])


def charpoly_exact(g) -> Polynomial:
    """The exact route's characteristic polynomial of L, in t."""
    return Polynomial.from_u_coefficients(*linalg.exact_u(g))


def random_walk_matrix(g):
    """Row-stochastic transition matrix D^{-1}A as exact rationals."""
    if g.has_isolated_vertex():
        raise DegreeError("graph has an isolated vertex")
    return [[Rat(g.scaled_adj[i].get(j, 0), g.scaled_degrees[i]) for j in range(g.n)]
            for i in range(g.n)]


def charpoly_random_walk(g) -> Polynomial:
    """det(xI - D^{-1}A), in x.

    `exact_u` gives det(uI + D^{-1}A); at u = -x that is
    (-1)^n det(xI - D^{-1}A), so coefficient i changes sign by (-1)^(n+i).
    """
    coeffs, den = linalg.exact_u(g)
    return Polynomial([Rat((-1) ** (g.n + i) * c, den) for i, c in enumerate(coeffs)])


def charpoly_via_decompositions(g, budget: int = decomps.DEFAULT_BUDGET) -> Polynomial:
    """The oracle's sum of decomposition terms, in t."""
    return Polynomial.from_u_coefficients(*decomps.oracle_u(g, budget))


def charpoly_via_transfer(w, k) -> Polynomial:
    """The transfer route's characteristic polynomial, in t."""
    return Polynomial.from_u_coefficients(*transfer.transfer_u(w, k)[0])


def short_part(w, k) -> Polynomial:
    """(t-1)^n tr(Q X_{l_1} ... Q X_{l_tau}), the transfer route's short part, in t."""
    return Polynomial.from_u_coefficients(*transfer.transfer_u(w, k)[1])
