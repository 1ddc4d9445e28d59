"""The exact route: the characteristic polynomial from the matrix alone.

The characteristic polynomial of the normalized Laplacian is computed
without any floating point: L is similar to I - D^{-1}A, so
det(tI - L) = det(uI + D^{-1}A) with u = t - 1.  Scaling D^{-1}A by the
least common denominator c of its entries gives an integer matrix M, built
straight from the adjacency rows as its nonzeros, row by row (86 of 1,444
entries on the ring CCEECECPEECPPPPP, n = 38); the polynomial stays in u.
c takes one gcd per row, and M's rows one pass over the adjacency.

The integer charpoly det(xI - M) is multi-modular, and each pass reads
only M's nonzeros.  Hadamard's bound on the principal minors bounds every
coefficient by B = prod_i (2 + isqrt(|row i|^2)).  The modulus is the
first prime of a ladder above 2B: the Mersenne primes 2^61 - 1 to
2^127 - 1, then Proth primes h 2^s + 1 of 160 to 448 bits; so one pass
serves every bound below 2^446.  Wider bounds take the Mersenne primes
from 2^521 - 1 up, as many as needed.  Modulo each prime, M is reduced
to upper Hessenberg form and the Hessenberg recurrence gives the
charpoly; CRT folds in each prime after the first, which leaves a single
prime's residues as they are, and symmetric residues give the integers.  A
point certificate checks the result: det(x0 I - M) by Gaussian
elimination modulo 2^31 - 1, a prime outside every modulus set, must
equal the rebuilt polynomial at x0, or CertificateError is raised.
`exact_u` hands the result on as integer u-coefficients over one
denominator in lowest terms, the powers of c built one from the last,
and checks det L = 0 and tr L = n on them.  The kernel sees only M,
never the ring structure, so the exact route stays an independent
reference for the other two.
"""

from __future__ import annotations

import math

from .errors import CertificateError, DegreeError, ParameterError
from .graphs import WeightedGraph
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
# over its bounds, the sparse-row _charpoly_integer took (ms, mean of
# per-graph medians of 5 runs, CPython 3.11, 2 cores, October 2026):
#   rung (bits)          160     192     256     320     384     448
#   graph bounds (bits) 127-158 159-190 191-254 255-318 319-382 383-446
#   Mersenne sets        4.6     8.2    18.7    34.5    51.4    97.4
#   ladder               3.0     5.4    10.8    20.0    35.0    68.1
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


def _coefficient_bound(rows) -> int:
    """B = prod_i (2 + isqrt(|row i|^2)) bounds every coefficient of
    det(xI - m).

    The coefficient of x^(n-k) is, up to sign, the sum of the k x k
    principal minors; Hadamard bounds the minor on S by prod_{i in S} r_i,
    r_i = 1 + isqrt(|row i|^2) >= |row i|, and the sum over all S of those
    products is prod_i (1 + r_i).
    """
    return math.prod(2 + math.isqrt(sum(x * x for _, x in row)) for row in rows)


def _moduli(bound: int) -> tuple:
    """The first modulus set whose product exceeds 2 * bound."""
    for moduli in _MODULUS_SETS:
        if math.prod(moduli) > 2 * bound:
            return moduli
    raise ParameterError(
        f"characteristic polynomial coefficients bounded by 2^{bound.bit_length()} "
        f"exceed the product of the listed moduli"
    )


def _charpoly_mod(rows, p: int) -> list:
    """Coefficients of det(xI - m) modulo the prime p, constant term first.

    h, filled from m's nonzeros modulo p, is reduced to upper Hessenberg
    form by similarities, column k by column k with any nonzero pivot, which
    one scan of column k finds together with the rows below it: a row swap
    with the matching column swap, then row_i -= f_i row_{k+1} for every row
    i below the pivot row, then column_{k+1} += sum_i f_i column_i; with no
    such row, the pivot needs no inverse.  The charpolys p_j of the
    leading j x j blocks of h then follow by the Hessenberg recurrence
    p_{j+1} = x p_j - sum_{i<=j} h_ij t_ij p_i, t_ij = h_{i+1,i} ... h_{j,j-1},
    each t_ij a ratio of prefix products.  Graph matrices stay sparse under
    the reduction, so zero entries are skipped rather than multiplied.
    """
    n = len(rows)
    h = [[0] * n for _ in range(n)]
    for r, row in zip(h, rows):
        for c, x in row:
            r[c] = x % p
    for k in range(n - 2):
        k1 = k + 1
        column = [(i, h[i][k]) for i in range(k1, n) if h[i][k]]
        if not column:
            continue
        pivot, lead = column[0]
        if pivot != k1:
            h[pivot], h[k1] = h[k1], h[pivot]
            for row in h:
                row[pivot], row[k1] = row[k1], row[pivot]
        if len(column) == 1:
            continue
        top = h[k1]
        inv = pow(lead, -1, p)
        nonzero = [(c, top[c]) for c in range(k1, n) if top[c]]
        factors = [(i, x * inv % p) for i, x in column[1:]]
        for i, f in factors:
            row = h[i]
            row[k] = 0
            for c, x in nonzero:
                row[c] = (row[c] - f * x) % p
        for i, f in factors:
            for r in h:
                x = r[i]
                if x:
                    r[k1] = (r[k1] + f * x) % p
    # the chain h_{i+1,i} ... h_{j,j-1} is pre[j] / pre[i] for i >= start[j], else 0
    pre, start, inverse = [1], [0], [1]
    for j in range(1, n):
        sub = h[j][j - 1]
        pre.append(pre[-1] * sub % p if sub else 1)
        start.append(start[-1] if sub else j)
    for x in pre:
        inverse.append(inverse[-1] * x % p)
    inv = pow(inverse[-1], -1, p)
    for i in range(n - 1, -1, -1):  # inverse[i] = 1 / pre[i], by one modular inverse
        inverse[i], inv = inv * inverse[i] % p, inv * pre[i] % p
    polys = [[1]]  # polys[j] = det(xI - h[:j, :j]), constant term first
    for j in range(n):
        new = [0] + polys[j]
        for i in range(start[j], j + 1):
            if h[i][j]:
                coef = h[i][j] * pre[j] * inverse[i] % p
                for s, c in enumerate(polys[i]):
                    new[s] -= coef * c
        polys.append([c % p for c in new])
    return polys[n]


def _det_mod(rows, x0: int, q: int) -> int:
    """det(x0 I - m) modulo the prime q, by Gaussian elimination, diagonal pivots first."""
    n = len(rows)
    a = [[0] * n for _ in range(n)]
    for i, (r, row) in enumerate(zip(a, rows)):
        r[i] = x0 % q
        for c, x in row:
            r[c] = (r[c] - x) % q
    det = 1
    for k in range(n):
        if not a[k][k]:
            pivot = next((i for i in range(k + 1, n) if a[i][k]), None)
            if pivot is None:
                return 0
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


def _charpoly_integer(rows) -> list:
    """Integer coefficients of det(xI - m), constant term first, for a square
    integer matrix m given by its nonzeros: rows[i] lists (j, m_ij), m_ij != 0.

    Every coefficient lies in [-B, B] (`_coefficient_bound`), so its
    residues modulo primes whose product P exceeds 2B fix it: CRT folds in
    each prime after the first (Garner's form, no work for a single prime),
    then the symmetric residue in (-P/2, P/2] gives it.  The result is
    certified at one point: it must agree with det(x0 I - m) by Gaussian
    elimination modulo a prime outside the modulus set, or CertificateError
    is raised.
    """
    moduli = _moduli(_coefficient_bound(rows))
    product = moduli[0]
    coeffs = _charpoly_mod(rows, product)
    for p in moduli[1:]:
        inv = pow(product, -1, p)
        residues = _charpoly_mod(rows, p)
        coeffs = [x + product * ((y - x) * inv % p) for x, y in zip(coeffs, residues)]
        product *= p
    half = product >> 1
    coeffs = [x - product if x > half else x for x in coeffs]
    q, x0 = _CHECK_PRIME, _CHECK_POINT
    value = 0
    for c in reversed(coeffs):
        value = (value * x0 + c) % q
    if value != _det_mod(rows, x0, q):
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
    Row u's entries have the least common denominator D_u / gcd(D_u, W_u.),
    so c takes one gcd per row.
    """
    if g.has_isolated_vertex():
        raise DegreeError("graph has an isolated vertex")
    degree_adj = list(zip(g.scaled_degrees, g.scaled_adj))
    c = math.lcm(*[d // math.gcd(d, *adj.values()) for d, adj in degree_adj])
    rows = [[(v, -w * c // d) for v, w in adj.items()] for d, adj in degree_adj]
    b = _charpoly_integer(rows)
    coeffs, power = [b[0]], 1
    for bi in b[1:]:
        power *= c
        coeffs.append(bi * power)
    return coeffs, power


def exact_u(g: WeightedGraph) -> tuple:
    """det(tI - L) of g as (coeffs, den) in lowest terms: the polynomial is
    sum_i coeffs[i] u^i / den with u = t - 1.

    L is similar to I - D^{-1}A, so det(tI - L) = det(uI + D^{-1}A): one
    multi-modular integer charpoly in u.  The result is monic of degree n
    by construction; the postcondition checks, in integers, the two facts
    of every loop-free graph without isolated vertices that the arithmetic
    could still get wrong: det L = 0 (sum_i (-1)^i coeffs[i] = 0) and
    tr L = n (coeffs[n-1] - n coeffs[n] = -n den).  Both need n >= 1: the
    empty graph gives det of the empty matrix, ((1,), 1), as `oracle_u` does.
    """
    coeffs, den = lowest_terms(*_walk_charpoly(g))
    n = g.n
    if n == 0:
        return coeffs, den
    at_zero = sum(coeffs[::2]) - sum(coeffs[1::2])
    trace = coeffs[n - 1] - n * coeffs[n]
    if at_zero != 0 or trace != -n * den:
        raise CertificateError(
            f"characteristic polynomial of L has constant term {at_zero}/{den} "
            f"and t^{n - 1} coefficient {trace}/{den}, expected 0 and {-n}"
        )
    return coeffs, den
