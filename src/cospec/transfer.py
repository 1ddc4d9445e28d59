"""Transfer-matrix computation of the non-long-cycle part of the
characteristic polynomial, and the exact matrix identities behind the
toggling symmetry.

States are the subsets of a module's signed vertices that its local
decomposition uses, ordered (empty, +, -, +/-).  The 0/1 transition
matrix Q says which states may follow which; the diagonal weight
matrices X_P, X_C, X_E carry the local contributions.  Conjugating by R
compresses everything to 2x2 blocks Y_*, and the matrix U intertwines
Y_P with Y_C while commuting with Y_E, which forces trace invariance
under toggling.  X_TABLE holds u^4 X_kind as integer polynomials in k and
v = u^2, and the blocks Y_kind built from it are integer polynomials in
(k, v) too (`_y_poly_block`).  `certify_identities` proves the identities
on those blocks as polynomials, so for every k > 0 and t not in {0, 1, 2}
at once, and the kernel evaluates the very same blocks at one k.  The
route needs nothing from the other two: it carries its own small exact
matrix products and inverse, and the long-cycle part as a closed-form
monomial.

The short part is computed symbolically in u = t - 1 on the 2x2 blocks:
S has zero rows 2 and 3, so tr prod_i Q X_i = tr prod_i Y_i.  Every
entry of u^4 Y_kind is a polynomial of degree <= 2 in v = u^2; scaled to
integers, it is packed into one integer at v = 2^B (Kronecker
substitution).  The product around the word is then a 2x2 integer matrix
product, eight integer products per step, and its last step forms only
the trace, which packs u^{4 tau} tr(prod).  The radix is proven wide
enough: with |M| the largest row sum of the entries' coefficient
1-norms, every trace coefficient is at most 2 prod_i |M_i|, and B is
chosen with 2^(B-1) above that, so balanced base-2^B digits read the
coefficients back.  Each k's blocks are built once and packed once per
radix.  Dividing by u^{4 tau - n} gives (t - 1)^n tr(prod) in u; the
division must be exact and leave degree <= n, which certifies that
(t - 1)^n clears every denominator.
"""

from __future__ import annotations

import functools
import math

from .errors import CertificateError, IdentityCheckError, ParameterError, ShapeError
from .polynomials import balanced_digits, lowest_terms
from .rationals import Rat, as_rat
from .words import Word


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ShapeError("matrix dimensions do not match")
    return [[sum((x * y for x, y in zip(row, col)), Rat(0)) for col in zip(*b)] for row in a]


def mat_inv(matrix):
    """Exact inverse via Gauss-Jordan; raises ShapeError if singular."""
    n = len(matrix)
    m = [list(row) + [Rat(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
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


# u^4 X_kind times 4 (k+1)^2, one entry per state (empty, +, -, +/-): the
# integer coefficients in k, constant term first, of v^0, v^1 and v^2.
X_TABLE = {
    "P": (((), (), (4, 8, 4)), ((), (0, -2, -2), ()), ((), (0, -2, -2), ()),
          ((0, 0, 1), (-1,), ())),
    "C": (((), (0, 0, -4), (4, 8, 4)), ((), (0, -2), ()), ((), (0, -2), ()),
          ((), (-1,), ())),
    "E": (((), (), (4, 8, 4)), ((), (), ()), ((), (), ()), ((), (-1, -2, -1), ())),
}

# U = [[20v - 2, -32v - 4], [8v + 1, -20v + 2]]: coefficients of v^0, v^1.
U_TABLE = (((-2, 20), (-4, -32)), ((1, 8), (2, -20)))


@functools.cache
def _y_weights():
    """(c, e) with integers c[i][j][s] = e (S R^-1)[i][s] R[s][j], so that
    Y_kind[i][j] = sum_s c[i][j][s] X_kind[s][s] / e: X_kind is diagonal.
    A constant, built on first use."""
    r = r_matrix()
    left = mat_mul(s_matrix(), mat_inv(r))
    weights = [[[left[i][s] * r[s][j] for s in range(4)] for j in range(2)] for i in range(2)]
    e = math.lcm(*(int(x.denominator) for row in weights for entry in row for x in entry))
    return [[[int(x * e) for x in entry] for entry in row] for row in weights], e


@functools.lru_cache(maxsize=21)
def _integral_blocks(p: int, q: int) -> tuple:
    """(blocks, packed) at k = p/q > 0, built once per k and shared by every
    caller, so only `_short_kernel` may change them: it adds to packed the
    three blocks packed at each radix it meets.  blocks[kind] is (d, block,
    norm): `_y_poly_block(kind)`, the block `certify_identities` proves, at k
    (times q^D, D = max(2, its degree in k), each entry is an integer triple
    in v over 4 e (p+q)^2 q^(D-2)) with the common factor d divided out, and
    norm the largest row sum of the entries' coefficient 1-norms."""
    _, e = _y_weights()
    blocks = {}
    for kind in "PCE":
        poly = _y_poly_block(kind)
        deg = max([2] + [i for row in poly for entry in row for i, _ in entry])
        entries = [[[sum(c * p**i * q ** (deg - i) for (i, j), c in entry.items() if j == v)
                     for v in range(3)] for entry in row] for row in poly]
        den = 4 * e * (p + q) ** 2 * q ** (deg - 2)
        g = math.gcd(den, *(c for row in entries for entry in row for c in entry))
        block = tuple(tuple(tuple(c // g for c in entry) for entry in row) for row in entries)
        norm = max(sum(abs(c) for entry in row for c in entry) for row in block)
        blocks[kind] = den // g, block, norm
    return blocks, {}


def _radix_bits(norms) -> int:
    """B with 2^(B-1) > 2 prod(norms), which bounds every coefficient of a
    2x2 product's entries and trace (see the module docstring)."""
    return (2 * math.prod(norms)).bit_length() + 1


def _pack(block, bits: int) -> tuple:
    """A 2x2 block of coefficient triples in v at v = 2^bits, flat: (a, b, c, d)."""
    return tuple(x + (y << bits) + (z << 2 * bits) for row in block for x, y, z in row)


def _packed_trace(mats) -> int:
    """tr(M_1 M_2 ... M_r), r >= 2, of flat 2x2 integer matrices: eight
    products per step, and four for the last, which forms only the trace."""
    a, b, c, d = mats[0]
    for e, f, g, h in mats[1:-1]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    e, f, g, h = mats[-1]
    return a * e + b * g + c * f + d * h


def _short_kernel(letters: str, ell: int, m: int, p: int, q: int) -> tuple:
    """(c, d) with (t-1)^n tr(prod_i Y_{letter_i}) = sum_i c[i] u^i / d for
    the word with ell P and m C modules at k = p/q > 0, by the packed product
    of the module docstring.  Raises CertificateError unless the trace is
    u^{4 tau - n} times a polynomial of degree <= n, i.e. unless (t-1)^n
    clears every denominator."""
    blocks, packed = _integral_blocks(p, q)
    tau = len(letters)
    counts = (("P", ell), ("C", m), ("E", tau - ell - m))
    bits = _radix_bits([blocks[kind][2] ** c for kind, c in counts])
    mats = packed.get(bits)
    if mats is None:
        mats = packed[bits] = {kind: _pack(block, bits) for kind, (_, block, _) in blocks.items()}
    trace_v = balanced_digits(_packed_trace([mats[x] for x in letters]), bits, 2 * tau + 1)
    u_coeffs = [0] * (2 * len(trace_v))
    u_coeffs[::2] = trace_v
    n = tau + 2 * (ell + m)
    low = 4 * tau - n
    if any(u_coeffs[:low]) or any(u_coeffs[low + n + 1:]):
        raise CertificateError(f"u^{4 * tau} tr(prod) for {letters} at k={Rat(p, q)} is not "
                               f"u^{low} times a polynomial of degree <= {n}")
    return u_coeffs[low:low + n + 1], math.prod(blocks[kind][0] ** c for kind, c in counts)


def long_cycle_monomial(tau: int, ell: int, m: int, k) -> tuple:
    """The long-cycle part for a ring with counts (tau, ell, m) as the
    monomial ((c, d), j), meaning c (t - 1)^j / d: at k = p/q and e = ell + m,
    c = (-1)^(tau-1) q^e, d = 2^(tau-1) (p+q)^e and j = 2 e."""
    k = as_rat(k)
    p, q = k.numerator, k.denominator
    if tau < 3 or ell < 0 or m < 0 or ell + m > tau:
        raise ParameterError(f"invalid counts tau={tau}, ell={ell}, m={m}")
    if p <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    e = ell + m
    return ((-1) ** (tau - 1) * q**e, 2 ** (tau - 1) * (p + q) ** e), 2 * e


def transfer_u(w: Word, k) -> tuple:
    """(charpoly, short part) of G(w) from one kernel run, each as
    (coeffs, den) in lowest terms: sum_i coeffs[i] u^i / den, u = t - 1.

    The charpoly is the kernel's short part plus the long-cycle monomial,
    summed over one common denominator; it must be monic of degree n
    (coeffs[n] = den), or CertificateError is raised.
    """
    k = as_rat(k)
    tau, ell, m = len(w.letters), w.letters.count("P"), w.letters.count("C")
    n = tau + 2 * (ell + m)
    (c, d), j = long_cycle_monomial(tau, ell, m, k)  # first, as it rejects k <= 0
    short, scale = _short_kernel(w.letters, ell, m, k.numerator, k.denominator)
    den = math.lcm(scale, d)
    coeffs = [x * (den // scale) for x in short]
    coeffs[j] += c * (den // d)
    coeffs, den = lowest_terms(coeffs, den)
    if len(coeffs) != n + 1 or coeffs[-1] != den:
        raise CertificateError(f"transfer charpoly of {w} at k={k} is not monic of degree {n}")
    return (coeffs, den), lowest_terms(short, scale)


# Polynomials in (k, v) with integer coefficients: {(i, j): c} for c k^i v^j.


def _padd(*polys) -> dict:
    out = {}
    for p in polys:
        for key, c in p.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _pmul(a: dict, b: dict) -> dict:
    return _padd(*({(i + p, j + q): x * y} for (i, j), x in a.items() for (p, q), y in b.items()))


def _pmat_mul(a, b):
    return [[_padd(*(_pmul(x, row[j]) for x, row in zip(arow, b))) for j in range(len(b[0]))]
            for arow in a]


def _constant(matrix):
    return [[{(0, 0): c} if c else {} for c in row] for row in matrix]


def _y_poly_block(kind: str):
    """e 4(k+1)^2 u^4 Y_kind, e from `_y_weights`, as a 2x2 matrix of
    integer polynomials in (k, v), read from X_TABLE."""
    xs = [{(i, j): c for j, ks in enumerate(entry) for i, c in enumerate(ks) if c}
          for entry in X_TABLE[kind]]
    weights, _ = _y_weights()
    return [[_padd(*({key: w * c for key, c in x.items()} for w, x in zip(ws, xs)))
             for ws in row] for row in weights]


def certify_identities() -> list:
    """Prove the identities behind the toggle symmetry for every k > 0 and
    t not in {0, 1, 2}.

    Q = R S R^-1 and the zero rows 2 and 3 of S (which make
    tr prod Q X = tr prod Y) are constant.  The blocks Y_kind are integer
    polynomials in (k, v), v = (t-1)^2, over the common denominator
    e 4(k+1)^2 v^2, which is nonzero for k > 0 and t != 1; so each U
    identity, checked as an identity of polynomials, holds at every such
    point.  det U = -144 v (v - 1) vanishes exactly at t in {0, 1, 2}.
    Returns one entry per identity: its name, the largest degrees in k and
    in v of its two sides, and whether it holds.  Raises IdentityCheckError
    naming every identity that fails.
    """
    R, S = r_matrix(), s_matrix()
    yp, yc, ye = (_y_poly_block(kind) for kind in "PCE")
    u = [[{(0, j): c for j, c in enumerate(entry) if c} for entry in row] for row in U_TABLE]
    minus = {(0, 0): -1}
    det_u = _padd(_pmul(u[0][0], u[1][1]), _pmul(minus, _pmul(u[0][1], u[1][0])))
    sides = {
        "Q = R S R^-1": (_constant(q_matrix()), _constant(mat_mul(mat_mul(R, S), mat_inv(R)))),
        "S rows 2-3 = 0": (_constant(S[2:]), [[{}] * 4] * 2),
        "U Y_P = Y_C U": (_pmat_mul(u, yp), _pmat_mul(yc, u)),
        "U Y_C = Y_P U": (_pmat_mul(u, yc), _pmat_mul(yp, u)),
        "U Y_E = Y_E U": (_pmat_mul(u, ye), _pmat_mul(ye, u)),
        "det U = -144 v (v - 1)": ([[det_u]], [[{(0, 2): -144, (0, 1): 144}]]),
    }
    entries = []
    for name, (lhs, rhs) in sides.items():
        keys = [key for m in (lhs, rhs) for row in m for p in row for key in p]
        entries.append({
            "identity": name,
            "degree_k": max((i for i, _ in keys), default=0),
            "degree_v": max((j for _, j in keys), default=0),
            "holds": lhs == rhs,
        })
    failed = [e["identity"] for e in entries if not e["holds"]]
    if failed:
        raise IdentityCheckError(f"identities fail as polynomials in (k, v): {'; '.join(failed)}")
    return entries
