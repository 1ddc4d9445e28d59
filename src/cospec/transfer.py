"""Transfer-matrix computation of the non-long-cycle part of the
characteristic polynomial, and the exact matrix identities behind the
toggling symmetry.

States are the subsets of a module's signed vertices that its local
decomposition uses, ordered (empty, +, -, +/-).  The 0/1 transition
matrix Q says which states may follow which; the diagonal weight
matrices X_P, X_C, X_E carry the local contributions.  Conjugating by R
compresses everything to 2x2 blocks Y_*, and the matrix U intertwines
Y_P with Y_C while commuting with Y_E, which forces trace invariance
under toggling.

The short part is computed symbolically in u = t - 1.  Every entry of
u^4 Q X_kind and of u^4 Y_kind is a polynomial of degree <= 2 in
v = u^2, so one product of polynomial matrices around the word gives
u^{4 tau} tr(prod).  Dividing by u^{4 tau - n} and shifting from u to t
gives (t - 1)^n tr(prod); the division must be exact and leave degree
<= n, which certifies that (t - 1)^n clears every denominator.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

from .errors import (
    CertificateError,
    InvertibilityWarning,
    ParameterError,
    IdentityCheckError,
    PoleError,
)
from .linalg import det_rational, mat_equal, mat_inv, mat_mul
from .polynomials import Polynomial
from .rationals import Rat
from .words import Word
from .decomps import long_cycle_closed_form

STATES = ("empty", "+", "-", "+/-")


def q_matrix():
    """0/1 transition matrix between signed-vertex usage states."""
    return [
        [Rat(1), Rat(1), Rat(1), Rat(1)],
        [Rat(1), Rat(1), Rat(1), Rat(1)],
        [Rat(1), Rat(0), Rat(1), Rat(0)],
        [Rat(1), Rat(0), Rat(1), Rat(0)],
    ]


def r_matrix():
    half = Rat(1, 2)
    return [
        [Rat(1), Rat(-1), Rat(1), Rat(1)],
        [Rat(1), Rat(-1), Rat(0), Rat(0)],
        [half, Rat(1), Rat(0), Rat(-1)],
        [half, Rat(1), Rat(-2), Rat(0)],
    ]


def s_matrix():
    zero = Rat(0)
    m = [[zero] * 4 for _ in range(4)]
    m[0][0] = Rat(3)
    m[1][2] = Rat(1)
    return m


def _positive(k):
    k = Rat(k)
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    return k


def _check_point(k, t):
    t = Rat(t)
    if t == 1:
        raise PoleError("t = 1 is a pole of the weight matrices")
    return _positive(k), t


def _x_diagonal_v(kind: str, k):
    """Diagonal of u^4 X_kind, one coefficient triple (c0, c1, c2) in
    v = u^2 per state."""
    k = _positive(k)
    zero, one = Rat(0), Rat(1)
    if kind == "P":
        side = -k / (2 * k + 2)
        sq = (2 * k + 2) ** 2
        corner = (k * k / sq, -1 / sq, zero)
        return [(zero, zero, one), (zero, side, zero), (zero, side, zero), corner]
    if kind == "C":
        kk1 = (k + 1) ** 2
        side = -k / (2 * kk1)
        empty = (zero, -k * k / kk1, one)
        return [empty, (zero, side, zero), (zero, side, zero), (zero, -1 / (4 * kk1), zero)]
    if kind == "E":
        return [(zero, zero, one), (zero,) * 3, (zero,) * 3, (zero, Rat(-1, 4), zero)]
    raise ParameterError(f"unknown module kind {kind!r}")


def x_matrix(kind: str, k, t):
    """Diagonal local-contribution matrix of a module kind at (k, t)."""
    k, t = _check_point(k, t)
    v = (t - 1) ** 2
    v2 = v * v
    diag = [(c0 + c1 * v + c2 * v2) / v2 for c0, c1, c2 in _x_diagonal_v(kind, k)]
    zero = Rat(0)
    return [[diag[i] if i == j else zero for j in range(4)] for i in range(4)]


def y_block(kind: str, k, t):
    """Derived 2x2 block: upper left of S R^{-1} X_kind R."""
    full = _compressed(kind, k, t)
    return [row[:2] for row in full[:2]]


def _compressed(kind: str, k, t):
    r = r_matrix()
    return mat_mul(mat_mul(mat_mul(s_matrix(), mat_inv(r)), x_matrix(kind, k, t)), r)


def y_block_reference(kind: str, k, t):
    """Hard-coded closed forms of the 2x2 blocks, written out entry by
    entry with u = t - 1.  Kept independent of y_block so the mechanical
    derivation from S R^{-1} X R can be cross-checked against them.
    """
    k, t = _check_point(k, t)
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


def u_matrix(t):
    """The toggle-symmetry matrix; invertible exactly for t not in {0, 1, 2}."""
    t = Rat(t)
    if t == 1:
        raise PoleError("t = 1 is excluded")
    u2 = (t - 1) ** 2
    return [
        [20 * u2 - 2, -32 * u2 - 4],
        [8 * u2 + 1, -20 * u2 + 2],
    ]


def _qx_table(kind: str, k):
    """u^4 Q X_kind as a 4x4 matrix of coefficient triples in v = u^2."""
    diag = _x_diagonal_v(kind, k)
    zeros = (Rat(0),) * 3
    # Q is 0/1: each entry either selects a column of the diagonal or is zero
    return [[diag[j] if q else zeros for j, q in enumerate(row)] for row in q_matrix()]


def _y_table(kind: str, k):
    """u^4 Y_kind, the upper left block of S R^-1 (u^4 X_kind) R, as a 2x2
    matrix of coefficient triples in v = u^2."""
    r = r_matrix()
    left = mat_mul(s_matrix(), mat_inv(r))
    diag = _x_diagonal_v(kind, k)
    by_power = [
        mat_mul([[row[j] * diag[j][p] for j in range(4)] for row in left], r)
        for p in range(3)
    ]
    return [[tuple(m[i][j] for m in by_power) for j in range(2)] for i in range(2)]


@functools.lru_cache(maxsize=64)
def _integral_block(table, kind: str, k):
    """(d, d * table(kind, k)) for the least common denominator d, entries as
    ints in nested tuples: built once per (table, kind, k) and shared by
    every caller, so it must stay immutable."""
    entries = table(kind, k)
    den = math.lcm(*(int(c.denominator) for row in entries for entry in row for c in entry))
    return den, tuple(
        tuple(tuple(int(c.numerator) * (den // int(c.denominator)) for c in entry) for entry in row)
        for row in entries
    )


def _poly_mat_mul(a, b):
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


def _short_kernel(w: Word, k, table) -> Polynomial:
    """(t-1)^n tr(prod_i M_{letter_i}), where table(kind, k) gives u^4 M_kind
    as a matrix of coefficient triples in v = u^2.

    The trace of the integer-scaled product is u^{4 tau} tr(prod) times the
    scale.  Raises CertificateError unless it is u^{4 tau - n} times a
    polynomial of degree <= n, i.e. unless (t-1)^n clears every denominator.
    """
    blocks = {kind: _integral_block(table, kind, k) for kind in set(w.letters)}
    scale, prod = 1, None
    for letter in w:
        den, block = blocks[letter]
        scale *= den
        prod = block if prod is None else _poly_mat_mul(prod, block)
    trace_v = [sum(c) for c in zip(*(prod[i][i] for i in range(len(prod))))]
    u_coeffs = [0] * (2 * len(trace_v))
    u_coeffs[::2] = trace_v
    n = w.n
    low = 4 * w.tau - n
    if any(u_coeffs[:low]) or any(u_coeffs[low + n + 1:]):
        raise CertificateError(
            f"u^{4 * w.tau} tr(prod) for {w} at k={k} is not u^{low} times a "
            f"polynomial of degree <= {n}"
        )
    return Polynomial.from_u_coefficients(u_coeffs[low:low + n + 1]).scale(Rat(1, scale))


def short_part(w: Word, k) -> Polynomial:
    """(t-1)^n trace(Q X_{l_1} ... Q X_{l_tau}) as an exact polynomial.

    Equals the sum of decomposition terms over decompositions without a
    long cycle.
    """
    return _short_kernel(w, k, _qx_table)


def short_part_via_Y(w: Word, k) -> Polynomial:
    """Same polynomial computed from the 2x2 compressed blocks."""
    return _short_kernel(w, k, _y_table)


def charpoly_via_transfer(w: Word, k) -> Polynomial:
    """Long-cycle closed form plus transfer-matrix short part."""
    poly = long_cycle_closed_form(w.tau, w.ell, w.m, k) + short_part(w, k)
    if poly.degree != w.n or not poly.is_monic():
        raise CertificateError(
            f"transfer charpoly of {w} at k={k} is not monic of degree {w.n}"
        )
    return poly


@dataclass
class UConjugationReport:
    """Outcome of the exact toggle-symmetry identities at one point."""

    k: Rat
    t: Rat
    swap_p_to_c: bool  # U Y_P = Y_C U
    swap_c_to_p: bool  # U Y_C = Y_P U
    commutes_with_e: bool  # U Y_E = Y_E U
    invertible: bool

    @property
    def all_hold(self) -> bool:
        return self.swap_p_to_c and self.swap_c_to_p and self.commutes_with_e


def verify_U_conjugation(k, t) -> UConjugationReport:
    """Check Q = R S R^-1, that S R^-1 X_kind R has a zero lower right
    block for every kind, the three U identities and U's invertibility,
    all exactly.  A failed identity raises IdentityCheckError."""
    k, t = _check_point(k, t)
    R, S = r_matrix(), s_matrix()
    if not mat_equal(q_matrix(), mat_mul(mat_mul(R, S), mat_inv(R))):
        raise IdentityCheckError(f"Q != R S R^-1 at t={t}")
    blocks = []
    for kind in "PCE":
        full = _compressed(kind, k, t)
        lower_right = [row[2:] for row in full[2:]]
        if any(entry != 0 for row in lower_right for entry in row):
            raise IdentityCheckError(
                f"lower right block of S R^-1 X_{kind} R is not zero: {lower_right}"
            )
        blocks.append([row[:2] for row in full[:2]])
    U = u_matrix(t)
    yp, yc, ye = blocks
    report = UConjugationReport(
        k=k,
        t=t,
        swap_p_to_c=mat_equal(mat_mul(U, yp), mat_mul(yc, U)),
        swap_c_to_p=mat_equal(mat_mul(U, yc), mat_mul(yp, U)),
        commutes_with_e=mat_equal(mat_mul(U, ye), mat_mul(ye, U)),
        invertible=det_rational(U) != 0,
    )
    if not report.invertible:
        warnings.warn(
            f"U is singular at t={t} (excluded point)", InvertibilityWarning
        )
    if not report.all_hold:
        raise IdentityCheckError(f"U conjugation identity failed at k={k}, t={t}")
    return report
