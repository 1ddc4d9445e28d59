"""Exact rational matrix arithmetic and the baseline spectral computations.

The characteristic polynomial of the normalized Laplacian is computed
without any floating point: L is similar to I - D^{-1}A, so
det(tI - L) = det((t-1)I + D^{-1}A), which is evaluated at rational
points and interpolated.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificateError, NumericalError, ShapeError
from .graphs import WeightedGraph, normalized_laplacian, random_walk_matrix
from .polynomials import Polynomial, interpolate
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


def charpoly_of_matrix(matrix) -> Polynomial:
    """det(tI - M) for a square rational matrix, by evaluation/interpolation."""
    n = len(matrix)
    points = []
    for t in range(2, n + 3):
        shifted = [
            [Rat(t) - x if i == j else -x for j, x in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
        points.append((Rat(t), det_rational(shifted)))
    return interpolate(points, n)


def charpoly_exact(g: WeightedGraph) -> Polynomial:
    """Exact characteristic polynomial of the normalized Laplacian of g.

    Evaluates det((t-1)I + D^{-1}A) at t = 2 .. n+2 and interpolates;
    t = 1 is avoided because downstream identities divide by (t-1).
    """
    walk = random_walk_matrix(g)
    n = g.n
    points = []
    for t in range(2, n + 3):
        u = Rat(t) - 1
        m = [
            [u + x if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(walk)
        ]
        points.append((Rat(t), det_rational(m)))
    poly = interpolate(points, n)
    if poly.degree != n or not poly.is_monic():
        raise CertificateError(f"characteristic polynomial is not monic of degree {n}")
    return poly


def charpoly_random_walk(g: WeightedGraph) -> Polynomial:
    """Exact characteristic polynomial of the transition matrix D^{-1}A."""
    return charpoly_of_matrix(random_walk_matrix(g))


def eigenvalues_numeric(g: WeightedGraph) -> np.ndarray:
    """Ascending real eigenvalues of the normalized Laplacian."""
    L = normalized_laplacian(g)
    try:
        return np.sort(np.linalg.eigvalsh(L))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc
