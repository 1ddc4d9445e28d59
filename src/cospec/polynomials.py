"""The one polynomial form of the three charpoly routes, and its rendering
in t.

Each route gives its polynomial as u-coefficients over one denominator,
u = t - 1, as integers in lowest terms (`lowest_terms`): two such pairs
are equal exactly when the polynomials are.  The oracle and the transfer
route carry a polynomial packed as its value at a power of two and read
it back with `balanced_digits`.  t appears only in the JSON, which
`t_json` prints from a pair by an integer Taylor shift.
"""

from __future__ import annotations

import math


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


def balanced_digits(value: int, bits: int, count: int) -> list:
    """The coefficients c_0 .. c_{count-1}, each |c_i| < 2^(bits-1), of
    value = sum_i c_i 2^(bits i)."""
    mask, half, digits = (1 << bits) - 1, 1 << (bits - 1), []
    for _ in range(count):
        d = value & mask
        if d >= half:
            d -= 1 << bits
        digits.append(d)
        value = (value - d) >> bits
    return digits


def t_json(coeffs, den) -> list:
    """The t-coefficients of sum_i coeffs[i] (t - 1)^i / den, den > 0, as
    "p/q" strings, constant term first: a Pascal-triangle Taylor shift, then
    one gcd per coefficient with den, so a pair prints as its lowest terms do."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] -= a[j + 1]
    out = []
    for c in a:
        g = math.gcd(c, den)
        out.append(f"{c // g}/{den // g}")
    return out
