"""The exact route: the characteristic polynomial from the matrix alone,
and the numeric spectrum.

The characteristic polynomial of the normalized Laplacian is computed
without any floating point: L is similar to I - D^{-1}A, so
det(tI - L) = det(uI + D^{-1}A) with u = t - 1.  Scaling D^{-1}A by the
least common denominator c of its entries gives an integer matrix M, built
straight from the adjacency rows; the polynomial stays in u.

The integer charpoly det(xI - M) is multi-modular.  Hadamard's bound on
the principal minors bounds every coefficient by
B = prod_i (2 + isqrt(|row i|^2)).  The modulus is the first prime of a
ladder above 2B: the Mersenne primes 2^61 - 1 to 2^127 - 1, then Proth
primes h 2^s + 1 of 160 to 448 bits; so one pass serves every bound below
2^446.  Wider bounds take the Mersenne primes from 2^521 - 1 up, as many
as needed.  Modulo each, M is reduced to upper Hessenberg form and the
Hessenberg recurrence gives the charpoly; CRT with symmetric residues
rebuilds the integers.  A point certificate checks the result:
det(x0 I - M) by Gaussian elimination modulo 2^31 - 1, a prime outside
every modulus set, must equal the rebuilt polynomial at x0, or
CertificateError is raised.  `exact_u` hands the result on as integer
u-coefficients over one denominator in lowest terms.  The kernel sees only
M, never the ring structure, so the exact route stays an independent
reference for the other two.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificateError, DegreeError, NumericalError, ParameterError
from .graphs import WeightedGraph, normalized_laplacian
from .polynomials import lowest_terms

# Moduli for the multi-modular kernel.  Every bound B below 2^446 takes one
# prime, the first of the ladder above 2B; the top rung is about 2^447.02,
# so bounds from 2^446 on may need 2^521 - 1.  The ladder is the Mersenne
# primes 2^e - 1 up to 2^127 - 1 (each proven prime by the Lucas-Lehmer
# test), then Proth primes h 2^s + 1 with h < 2^s, each proven prime by
# Proth's theorem with the witness a stored beside it: a^((N-1)/2) = -1
# modulo N.  Wider bounds take the Mersenne primes from 2^521 - 1 up, as
# many as needed, and CRT.  The Proth rungs serve only bounds of 2^126 and
# more (rings of about 32 vertices and more at k = 7/3).  Mersenne primes
# alone would serve those bounds by two passes modulo primes of at most 127
# bits and a CRT step (bounds up to 2^233), or by one pass modulo
# 2^521 - 1, and take longer: per rung, on 6 ring graphs at k = 7/3 spread
# over its bounds, _charpoly_integer took (ms, mean of per-graph medians of
# 5 runs, CPython 3.11):
#   rung (bits)          160     192     256     320     384     448
#   graph bounds (bits) 129-154 166-190 194-254 255-308 320-381 384-446
#   Mersenne sets        5.9    11.1    27.4    51.8    73.3   119.1
#   ladder               3.9     7.7    16.1    30.9    50.1    93.8
# and no graph took longer with the ladder (worst ratio 0.80, at 448 bits).
_SMALL_PRIMES = tuple((1 << e) - 1 for e in (61, 89, 107, 127))
_PROTH_PRIMES = (  # (h, s, a): N = h 2^s + 1 of 160, 192, 256, 320, 384 and 448 bits
    (32931, 144, 5), (32791, 176, 3), (32875, 240, 3),
    (33087, 304, 5), (32871, 368, 5), (33121, 432, 3),
)
_LARGE_PRIMES = tuple(
    (1 << e) - 1 for e in (521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937)
)
_MODULUS_SETS = [(p,) for p in _SMALL_PRIMES] + [
    ((h << s) + 1,) for h, s, _ in _PROTH_PRIMES
] + [_LARGE_PRIMES[:i] for i in range(1, len(_LARGE_PRIMES) + 1)]

# The point certificate: det(x0 I - m) by Gaussian elimination modulo the
# Mersenne prime 2^31 - 1, which is in no modulus set.
_CHECK_PRIME = (1 << 31) - 1
_CHECK_POINT = 65537


def _coefficient_bound(m) -> int:
    """B = prod_i (2 + isqrt(|row i|^2)) bounds every coefficient of
    det(xI - m).

    The coefficient of x^(n-k) is, up to sign, the sum of the k x k
    principal minors; Hadamard bounds the minor on S by prod_{i in S} r_i,
    r_i = 1 + isqrt(|row i|^2) >= |row i|, and the sum over all S of those
    products is prod_i (1 + r_i).
    """
    return math.prod(2 + math.isqrt(sum(x * x for x in row)) for row in m)


def _moduli(bound: int) -> tuple:
    """The first modulus set whose product exceeds 2 * bound."""
    for moduli in _MODULUS_SETS:
        if math.prod(moduli) > 2 * bound:
            return moduli
    raise ParameterError(
        f"characteristic polynomial coefficients bounded by 2^{bound.bit_length()} "
        f"exceed the product of the listed moduli"
    )


def _charpoly_mod(m, p: int) -> list:
    """Coefficients of det(xI - m) modulo the prime p, constant term first.

    m is reduced to upper Hessenberg form h by similarities, column k by
    column k with any nonzero pivot: a row swap with the matching column
    swap, then row_i -= f_i row_{k+1} for every row i below the pivot row,
    then column_{k+1} += sum_i f_i column_i.  The charpolys p_j of the
    leading j x j blocks of h then follow by the Hessenberg recurrence
    p_{j+1} = (x - h_jj) p_j - sum_{i<j} h_ij (h_{i+1,i} ... h_{j,j-1}) p_i.
    Graph matrices stay sparse under the reduction, so zero entries are
    skipped rather than multiplied.
    """
    n = len(m)
    h = [[x % p for x in row] for row in m]
    for k in range(n - 2):
        k1 = k + 1
        pivot = next((i for i in range(k1, n) if h[i][k]), None)
        if pivot is None:
            continue
        if pivot != k1:
            h[pivot], h[k1] = h[k1], h[pivot]
            for row in h:
                row[pivot], row[k1] = row[k1], row[pivot]
        top = h[k1]
        inv = pow(top[k], -1, p)
        nonzero = [(c, top[c]) for c in range(k1, n) if top[c]]
        factors = [(i, h[i][k] * inv % p) for i in range(k + 2, n) if h[i][k]]
        for i, f in factors:
            row = h[i]
            row[k] = 0
            for c, x in nonzero:
                row[c] = (row[c] - f * x) % p
        for i, f in factors:
            for r in h:
                if r[i]:
                    r[k1] = (r[k1] + f * r[i]) % p
    polys = [[1]]  # polys[j] = det(xI - h[:j, :j]), constant term first
    for j in range(n):
        prev = polys[j]
        d = h[j][j]
        new = [0] + prev
        for i, c in enumerate(prev):
            new[i] -= d * c
        t = 1
        for i in range(j - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            if h[i][j]:
                coef = t * h[i][j]
                for s, c in enumerate(polys[i]):
                    new[s] -= coef * c
        polys.append([c % p for c in new])
    return polys[n]


def _det_mod(m, x0: int, q: int) -> int:
    """det(x0 I - m) modulo the prime q, by Gaussian elimination."""
    n = len(m)
    a = [[((x0 if i == j else 0) - x) % q for j, x in enumerate(row)] for i, row in enumerate(m)]
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        top = a[k]
        det = det * top[k] % q
        inv = pow(top[k], -1, q)
        nonzero = [(c, top[c]) for c in range(k + 1, n) if top[c]]
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] * inv % q
                for c, x in nonzero:
                    row[c] = (row[c] - f * x) % q
    return det % q


def _charpoly_integer(m) -> list:
    """Integer coefficients of det(xI - m), constant term first, for a
    square integer matrix m.

    Every coefficient lies in [-B, B] (`_coefficient_bound`), so its
    residues modulo primes whose product P exceeds 2B fix it: CRT, then the
    symmetric residue in (-P/2, P/2].  The result is certified at one point:
    it must agree with det(x0 I - m) by Gaussian elimination modulo a prime
    outside the modulus set, or CertificateError is raised.
    """
    moduli = _moduli(_coefficient_bound(m))
    product = math.prod(moduli)
    weights = [product // p * pow(product // p, -1, p) for p in moduli]
    residues = [_charpoly_mod(m, p) for p in moduli]
    coeffs = []
    for column in zip(*residues):
        x = sum(w * c for w, c in zip(weights, column)) % product
        coeffs.append(x - product if 2 * x > product else x)
    q, x0 = _CHECK_PRIME, _CHECK_POINT
    value = 0
    for c in reversed(coeffs):
        value = (value * x0 + c) % q
    if value != _det_mod(m, x0, q):
        raise CertificateError(
            f"multi-modular characteristic polynomial disagrees with det({x0} I - m) "
            f"modulo {q} (moduli of {[p.bit_length() for p in moduli]} bits)"
        )
    return coeffs


def _walk_charpoly(g: WeightedGraph):
    """det(uI + D^{-1}A) as (integer coefficients, scale): the polynomial
    is sum_i coeffs[i] u^i / scale.

    With c the least common denominator of the entries W_uv / D_u of D^{-1}A
    (the graph's scaled integers), the kernel gives det(yI + cD^{-1}A) =
    c^n det((y/c)I + D^{-1}A), so the coefficient of u^i is b_i c^i / c^n.
    """
    if g.has_isolated_vertex():
        raise DegreeError("graph has an isolated vertex")
    degree = g.scaled_degrees
    entries = [(u, v, w) for (a, b), w in g.scaled_weights.items() for u, v in ((a, b), (b, a))]
    c = math.lcm(*(degree[u] // math.gcd(w, degree[u]) for u, _, w in entries))
    m = [[0] * g.n for _ in range(g.n)]
    for u, v, w in entries:
        m[u][v] = -w * c // degree[u]
    b = _charpoly_integer(m)
    return [bi * c**i for i, bi in enumerate(b)], c**g.n


def exact_u(g: WeightedGraph) -> tuple:
    """det(tI - L) of g as (coeffs, den) in lowest terms: the polynomial is
    sum_i coeffs[i] u^i / den with u = t - 1.

    L is similar to I - D^{-1}A, so det(tI - L) = det(uI + D^{-1}A): one
    multi-modular integer charpoly in u.  The result is monic of degree n
    by construction; the postcondition checks, in integers, the two facts
    of every loop-free graph without isolated vertices that the arithmetic
    could still get wrong: det L = 0 (sum_i (-1)^i coeffs[i] = 0) and
    tr L = n (coeffs[n-1] - n coeffs[n] = -n den).
    """
    coeffs, den = lowest_terms(*_walk_charpoly(g))
    n = g.n
    at_zero = sum(c if i % 2 == 0 else -c for i, c in enumerate(coeffs))
    trace = coeffs[n - 1] - n * coeffs[n]
    if at_zero != 0 or trace != -n * den:
        raise CertificateError(
            f"characteristic polynomial of L has constant term {at_zero}/{den} "
            f"and t^{n - 1} coefficient {trace}/{den}, expected 0 and {-n}"
        )
    return coeffs, den


def eigenvalues_numeric(g: WeightedGraph) -> np.ndarray:
    """Ascending real eigenvalues of the normalized Laplacian."""
    L = normalized_laplacian(g)
    try:
        return np.sort(np.linalg.eigvalsh(L))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
