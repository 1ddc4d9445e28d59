"""Exact rational matrix arithmetic and the baseline spectral computations.

The characteristic polynomial of the normalized Laplacian is computed
without any floating point: L is similar to I - D^{-1}A, so
det(tI - L) = det(uI + D^{-1}A) with u = t - 1.  Scaling D^{-1}A by the
least common denominator of its entries gives an integer matrix, whose
characteristic polynomial Berkowitz's division-free algorithm computes
in one pass; one Taylor shift turns u into t.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificateError, NumericalError, ShapeError
from .graphs import WeightedGraph, normalized_laplacian, random_walk_matrix
from .polynomials import Polynomial
from .rationals import Rat, bit_size

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


def mat_equal(a, b) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def det_rational(matrix) -> Rat:
    """Determinant by exact Gaussian elimination.

    Pivots are chosen by minimal numerator+denominator bit length to
    keep intermediate rationals small.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = Rat(1)
    for col in range(n):
        pivot_row = None
        best = None
        for r in range(col, n):
            x = m[r][col]
            if x != 0:
                size = bit_size(x)
                if best is None or size < best:
                    best = size
                    pivot_row = r
        if pivot_row is None:
            return Rat(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor == 0:
                continue
            factor = factor / pivot
            row, prow = m[r], m[col]
            for c in range(col + 1, n):
                if prow[c] != 0:
                    row[c] -= factor * prow[c]
            row[col] = Rat(0)
    return det


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


def _berkowitz(m) -> list:
    """Integer coefficients of det(xI - m), constant term first, for a
    square integer matrix m.

    Berkowitz's division-free algorithm (1984): with m = [[a, R], [C, A]],
    det(xI - m) is the lower-triangular Toeplitz matrix with first column
    (1, -a, -RC, -RAC, ..., -RA^{s-1}C) applied to the coefficients of
    det(xI - A), where A is s x s.  Peeling one row and column at a time
    from the bottom right needs only integer products.
    """
    n = len(m)
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    p = [1]  # det(xI - A) for the trailing block A, highest power first
    for r in range(n - 1, -1, -1):
        # R and A as sparse rows with columns counted from r + 1; v runs
        # through C, AC, A^2 C, ...
        top = [(j - r - 1, x) for j, x in nonzero[r] if j > r]
        block = [[(j - r - 1, x) for j, x in nonzero[i] if j > r] for i in range(r + 1, n)]
        v = [m[i][r] for i in range(r + 1, n)]
        col = [1, -m[r][r]]
        for _ in range(n - r - 1):
            col.append(-sum(x * v[j] for j, x in top))
            v = [sum(x * v[j] for j, x in row) for row in block]
        p = [
            sum(col[i - j] * p[j] for j in range(min(i, len(p) - 1) + 1))
            for i in range(len(p) + 1)
        ]
    return p[::-1]


def _walk_charpoly(g: WeightedGraph, sign: int):
    """det(xI - sign * D^{-1}A) as (integer coefficients, scale): the
    polynomial is sum_i coeffs[i] x^i / scale.

    With c the least common denominator of W = D^{-1}A, the kernel gives
    det(yI - sign cW) = c^n det((y/c)I - sign W), so the coefficient of
    x^i is b_i c^i / c^n.
    """
    walk = random_walk_matrix(g)
    c = math.lcm(*(int(x.denominator) for row in walk for x in row))
    b = _berkowitz(
        [[sign * int(x.numerator) * (c // int(x.denominator)) for x in row] for row in walk]
    )
    return [bi * c**i for i, bi in enumerate(b)], c**g.n


def charpoly_exact(g: WeightedGraph) -> Polynomial:
    """Exact characteristic polynomial of the normalized Laplacian of g.

    L is similar to I - D^{-1}A, so det(tI - L) = det(uI + D^{-1}A) with
    u = t - 1: one division-free integer charpoly in u, then one Taylor
    shift to t.  The result is monic of degree n by construction; the
    postcondition checks the two facts of every loop-free graph without
    isolated vertices that the arithmetic could still get wrong, namely
    det L = 0 and tr L = n.
    """
    coeffs, scale = _walk_charpoly(g, -1)
    poly = Polynomial.from_u_coefficients(coeffs).scale(Rat(1, scale))
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
    return Polynomial(coeffs).scale(Rat(1, scale))


def eigenvalues_numeric(g: WeightedGraph) -> np.ndarray:
    """Ascending real eigenvalues of the normalized Laplacian."""
    L = normalized_laplacian(g)
    try:
        return np.sort(np.linalg.eigvalsh(L))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
