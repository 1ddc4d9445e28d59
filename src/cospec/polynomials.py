"""The one polynomial form of the three charpoly routes, and its rendering
in t.

Each route gives its polynomial as u-coefficients over one denominator,
u = t - 1, as integers in lowest terms (`lowest_terms`): two such pairs
are equal exactly when the polynomials are.  t appears only in the JSON,
which `t_json` prints from a pair by an integer Taylor shift.
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


def t_json(coeffs, den) -> list:
    """The t-coefficients of sum_i coeffs[i] (t - 1)^i / den, a pair in
    lowest terms, as "p/q" strings, constant term first: a Pascal-triangle
    Taylor shift in integers, then one gcd per coefficient with den."""
    a = list(coeffs)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] -= a[j + 1]
    out = []
    for c in a:
        g = math.gcd(c, den)
        out.append(f"{c // g}/{den // g}")
    return out
