"""Polynomial arithmetic for the tests.

`cospec.polynomials.Polynomial` holds only what the routes and the JSON
read.  This subclass adds the exact arithmetic the references and the
tests build expected values with; it compares equal to the package's
polynomials coefficient by coefficient.
"""

import math

from cospec import polynomials
from cospec.rationals import Rat

_ZERO = Rat(0)


class Polynomial(polynomials.Polynomial):
    """A `cospec` polynomial with +, -, *, scaling and evaluation."""

    __slots__ = ()

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def t_minus_one_power(cls, j: int) -> "Polynomial":
        """(t - 1)^j, from the binomial theorem."""
        return cls([(-1) ** (j - i) * math.comb(j, i) for i in range(j + 1)])

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
        return self + (-Polynomial(other.coeffs))

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, polynomials.Polynomial):
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
