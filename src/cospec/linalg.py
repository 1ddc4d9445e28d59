"""Exact rational matrix arithmetic and the baseline spectral computations.

The characteristic polynomial of the normalized Laplacian is computed
without any floating point: L is similar to I - D^{-1}A, so
det(tI - L) = det(uI + D^{-1}A) with u = t - 1.  Scaling D^{-1}A by the
least common denominator c of its entries gives an integer matrix M, built
straight from the adjacency rows; one Taylor shift turns u into t.

The integer charpoly det(xI - M) is multi-modular.  Hadamard's bound on
the principal minors bounds every coefficient by
B = prod_i (2 + isqrt(|row i|^2)).  The moduli are Mersenne primes
2^e - 1 whose product exceeds 2B: one or two with e in {61, 89, 107, 127},
or, for wider bounds, those from 2^521 - 1 up.  Modulo each, M is reduced
to upper Hessenberg form and the Hessenberg recurrence gives the charpoly;
CRT with symmetric residues rebuilds the integers.  A point certificate
checks the result: det(x0 I - M) by Gaussian elimination modulo
2^31 - 1, a prime outside every modulus set, must equal the rebuilt
polynomial at x0, or CertificateError is raised.  The kernel sees only M,
never the ring structure, so the exact route stays an independent
reference for the other two.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificateError, DegreeError, NumericalError, ParameterError, ShapeError
from .graphs import WeightedGraph, normalized_laplacian
from .polynomials import Polynomial
from .rationals import Rat

# ---------------------------------------------------------------------------
# small dense rational matrices (lists of lists of Rat)


def mat_identity(n: int):
    return [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    if len(a[0]) != m:
        raise ShapeError("matrix dimensions do not match")
    zero = Rat(0)
    out = []
    for i in range(n):
        row = []
        ai = a[i]
        for j in range(p):
            acc = zero
            for t in range(m):
                acc += ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_inv(matrix):
    """Exact inverse via Gauss-Jordan; raises ShapeError if singular."""
    n = len(matrix)
    m = [list(row) + ident_row for row, ident_row in zip(matrix, mat_identity(n))]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise ShapeError("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# characteristic polynomials


# Moduli for the multi-modular kernel, all Mersenne primes 2^e - 1 (each
# proven prime by the Lucas-Lehmer test).  The kernel uses the first set
# below whose product exceeds twice the coefficient bound.  A pass modulo
# a prime of at most 127 bits costs far less than one modulo 2^521 - 1,
# so one or two of those come first, smallest product first: at n = 38
# (bound 2^154) the kernel took 5.9 ms with 2^61 - 1 and 2^107 - 1 against
# 8.8 ms with 2^521 - 1 alone (median of 6 runs over 40 graphs).  Wider
# bounds take the Mersenne primes from 2^521 - 1 up, as many as needed.
_SMALL_PRIMES = tuple((1 << e) - 1 for e in (61, 89, 107, 127))
_LARGE_PRIMES = tuple(
    (1 << e) - 1 for e in (521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937)
)
_MODULUS_SETS = sorted(
    [(p,) for p in _SMALL_PRIMES]
    + [(p, q) for i, p in enumerate(_SMALL_PRIMES) for q in _SMALL_PRIMES[i + 1:]],
    key=math.prod,
) + [_LARGE_PRIMES[:i] for i in range(1, len(_LARGE_PRIMES) + 1)]

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


def _walk_charpoly(g: WeightedGraph, sign: int):
    """det(xI - sign * D^{-1}A) as (integer coefficients, scale): the
    polynomial is sum_i coeffs[i] x^i / scale.

    With c the least common denominator of the entries W_uv / D_u of D^{-1}A
    (the graph's scaled integers), the kernel gives det(yI - sign cD^{-1}A) =
    c^n det((y/c)I - sign D^{-1}A), so the coefficient of x^i is b_i c^i / c^n.
    """
    if g.has_isolated_vertex():
        raise DegreeError("graph has an isolated vertex")
    degree = g.scaled_degrees
    entries = [(u, v, w) for (a, b), w in g.scaled_weights.items() for u, v in ((a, b), (b, a))]
    c = math.lcm(*(degree[u] // math.gcd(w, degree[u]) for u, _, w in entries))
    m = [[0] * g.n for _ in range(g.n)]
    for u, v, w in entries:
        m[u][v] = sign * w * c // degree[u]
    b = _charpoly_integer(m)
    return [bi * c**i for i, bi in enumerate(b)], c**g.n


def charpoly_exact(g: WeightedGraph) -> Polynomial:
    """Exact characteristic polynomial of the normalized Laplacian of g.

    L is similar to I - D^{-1}A, so det(tI - L) = det(uI + D^{-1}A) with
    u = t - 1: one multi-modular integer charpoly in u, then one Taylor
    shift to t.  The result is monic of degree n by construction; the
    postcondition checks the two facts of every loop-free graph without
    isolated vertices that the arithmetic could still get wrong, namely
    det L = 0 and tr L = n.
    """
    coeffs, scale = _walk_charpoly(g, -1)
    poly = Polynomial.from_u_coefficients(coeffs, scale)
    n = g.n
    if poly.coefficient(0) != 0 or poly.coefficient(n - 1) != -n:
        raise CertificateError(
            f"characteristic polynomial of L has constant term {poly.coefficient(0)} "
            f"and t^{n - 1} coefficient {poly.coefficient(n - 1)}, expected 0 and {-n}"
        )
    return poly


def charpoly_random_walk(g: WeightedGraph) -> Polynomial:
    """Exact characteristic polynomial of the transition matrix D^{-1}A."""
    coeffs, scale = _walk_charpoly(g, 1)
    return Polynomial([Rat(c, scale) for c in coeffs])


def eigenvalues_numeric(g: WeightedGraph) -> np.ndarray:
    """Ascending real eigenvalues of the normalized Laplacian."""
    L = normalized_laplacian(g)
    try:
        return np.sort(np.linalg.eigvalsh(L))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
