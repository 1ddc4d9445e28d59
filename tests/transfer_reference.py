"""Schoolbook references for the transfer route.

The route multiplies packed integers around the 2x2 blocks Y, and the
identities are proven as polynomials in (k, v); these helpers keep the
older, independent forms: the 4x4 table u^4 Q X_kind, a product of
matrices whose entries are integer coefficient lists, and the matrices X,
Y and U at one point, derived and written out by hand.
"""

import functools
import math

from cospec.errors import ParameterError
from cospec.linalg import mat_inv, mat_mul
from cospec.polynomials import Polynomial
from cospec.rationals import Rat
from cospec.transfer import _x_diagonal_v, q_matrix, r_matrix, s_matrix


def qx_table(kind, k):
    """u^4 Q X_kind as a 4x4 matrix of coefficient triples in v = u^2."""
    diag = _x_diagonal_v(kind, k)
    zeros = (Rat(0),) * 3
    # Q is 0/1: each entry either selects a column of the diagonal or is zero
    return [[diag[j] if q else zeros for j, q in enumerate(row)] for row in q_matrix()]


def poly_mat_mul(a, b):
    """Product of matrices whose entries are integer coefficient lists; all
    entries of a share one length, and so do all entries of b."""
    width = len(a[0][0]) + len(b[0][0]) - 1
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = [0] * width
            for x, b_row in zip(row, b):
                for q, y in enumerate(b_row[j]):
                    if y:
                        for p, xp in enumerate(x):
                            if xp:
                                acc[p + q] += xp * y
            out_row.append(acc)
        out.append(out_row)
    return out


@functools.lru_cache(maxsize=16)
def integral_qx_table(kind, k):
    """(d, d * qx_table(kind, k)) for the least common denominator d."""
    entries = qx_table(kind, k)
    den = math.lcm(*(int(c.denominator) for row in entries for e in row for c in e))
    return den, [[[int(c * den) for c in e] for e in row] for row in entries]


def short_part_via_qx(w, k) -> Polynomial:
    """(t-1)^n tr(prod_i Q X_{letter_i}) by the schoolbook product of the
    integer-scaled 4x4 tables, shifted to t and then scaled."""
    scale, prod = 1, None
    for letter in w:
        den, block = integral_qx_table(letter, k)
        scale *= den
        prod = block if prod is None else poly_mat_mul(prod, block)
    trace_v = [sum(c) for c in zip(*(prod[i][i] for i in range(4)))]
    u_coeffs = [0] * (2 * len(trace_v))
    u_coeffs[::2] = trace_v
    low = 4 * w.tau - w.n
    assert not any(u_coeffs[:low]) and not any(u_coeffs[low + w.n + 1:])
    return Polynomial.from_u_coefficients(u_coeffs[low:low + w.n + 1]).scale(Rat(1, scale))


def x_matrix(kind: str, k, t):
    """Diagonal local-contribution matrix of a module kind at (k, t)."""
    v = (Rat(t) - 1) ** 2
    diag = [(c0 + c1 * v + c2 * v * v) / (v * v) for c0, c1, c2 in _x_diagonal_v(kind, k)]
    return [[diag[i] if i == j else Rat(0) for j in range(4)] for i in range(4)]


def y_block(kind: str, k, t):
    """Derived 2x2 block: upper left of S R^{-1} X_kind R."""
    r = r_matrix()
    full = mat_mul(mat_mul(mat_mul(s_matrix(), mat_inv(r)), x_matrix(kind, k, t)), r)
    return [row[:2] for row in full[:2]]


def u_matrix(t):
    """The toggle-symmetry matrix U at one t, written out by hand."""
    v = (Rat(t) - 1) ** 2
    return [[20 * v - 2, -32 * v - 4], [8 * v + 1, -20 * v + 2]]


def y_block_reference(kind: str, k, t):
    """Hard-coded closed forms of the 2x2 blocks, written out entry by
    entry with u = t - 1.  Kept independent of y_block so the mechanical
    derivation from S R^{-1} X R can be cross-checked against them.
    """
    k, t = Rat(k), Rat(t)
    u = t - 1
    u2 = u * u
    u4 = u2 * u2
    k2 = k * k
    kk1 = (k + 1) ** 2
    if kind == "P":
        diag = (16 * k2 * u4 + 32 * k * u4 - 8 * k2 * u2 + 16 * u4 - 8 * k * u2 + k2 - u2)
        return [
            [
                diag / (12 * kk1 * u4),
                (-8 * k2 * u4 - 16 * k * u4 - 2 * k2 * u2 - 8 * u4 - 2 * k * u2 + k2 - u2)
                / (6 * kk1 * u4),
            ],
            [
                (8 * k2 * u4 + 16 * k * u4 + 2 * k2 * u2 + 8 * u4 + 2 * k * u2 - k2 + u2)
                / (24 * kk1 * u4),
                (-4 * k2 * u4 - 8 * k * u4 - 4 * u4 - 4 * k2 * u2 - 4 * k * u2 - k2 + u2)
                / (12 * kk1 * u4),
            ],
        ]
    if kind == "C":
        return [
            [
                (16 * k2 * u2 + 32 * k * u2 - 16 * k2 + 16 * u2 - 8 * k - 1)
                / (12 * kk1 * u2),
                (-8 * k2 * u2 - 16 * k * u2 + 8 * k2 - 8 * u2 - 2 * k - 1)
                / (6 * kk1 * u2),
            ],
            [
                (8 * k2 * u2 + 16 * k * u2 - 8 * k2 + 8 * u2 + 2 * k + 1)
                / (24 * kk1 * u2),
                (-4 * k2 * u2 - 8 * k * u2 + 4 * k2 - 4 * u2 - 4 * k + 1)
                / (12 * kk1 * u2),
            ],
        ]
    if kind == "E":
        return [
            [(16 * u2 - 1) / (12 * u2), (-8 * u2 - 1) / (6 * u2)],
            [(8 * u2 + 1) / (24 * u2), (-4 * u2 + 1) / (12 * u2)],
        ]
    raise ParameterError(f"unknown module kind {kind!r}")
