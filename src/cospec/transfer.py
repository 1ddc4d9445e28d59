"""Transfer-matrix computation of the non-long-cycle part of the
characteristic polynomial, and the exact matrix identities behind the
toggling symmetry.

States are the subsets of a module's signed vertices that its local
decomposition uses, ordered (empty, +, -, +/-).  The 0/1 transition
matrix Q says which states may follow which; the diagonal weight
matrices X_P, X_C, X_E carry the local contributions.  Conjugating by R
(held as the integer R2 = 2R, which conjugates alike) compresses
everything to 2x2 blocks Y_*, and the matrix U intertwines
Y_P with Y_C while commuting with Y_E, which forces trace invariance
under toggling.  X_TABLE holds u^4 X_kind as integer polynomials in k and
v = u^2, and the blocks Y_kind built from it are integer polynomials in
(k, v) too (`_y_blocks`).  `certify_identities` proves the identities
on those blocks as polynomials, so for every k > 0 and t not in {0, 1, 2}
at once, and the kernel evaluates the very same blocks at one k.  The
route needs nothing from the other two and works in integers: Q, R2 and
S are integer tables, R^-1 enters the blocks as adj(R2) / det(R2), and
the long-cycle part is a closed-form monomial.

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
coefficients back.  One memo, `_state`, reads the tables and holds the
(k, v) blocks of their state and, per k, the blocks evaluated at k and
their packings, one per letter-count triple at that triple's radix, so a
call forms only the packed trace and reads its digits back; a patched
table replaces the whole state.  Dividing by u^{4 tau - n} gives
(t - 1)^n tr(prod) in u; the division must be exact and leave degree
<= n, which certifies that (t - 1)^n clears every denominator.
"""

from __future__ import annotations

import math

from .errors import CertificateError, IdentityCheckError, ParameterError
from .polynomials import balanced_digits, lowest_terms
from .rationals import as_rat
from .words import Word


# Q, then R2 = 2R (integral; conjugating by it is conjugating by R), then S.
Q = ((1, 1, 1, 1), (1, 1, 1, 1), (1, 0, 1, 0), (1, 0, 1, 0))
R2 = ((2, -2, 2, 2), (2, -2, 0, 0), (1, 2, 0, -2), (1, 2, -4, 0))
S = ((3, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0))


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


# The tables `_state` last read, and their state.
_held = None, None


def _state() -> tuple:
    """(e, blocks, ks) for R2, S and X_TABLE as they stand: `_y_blocks`, and
    ks[p, q] = (`_integral_blocks(p, q)`, {(ell, m, tau): (bits, den, mats)}),
    the blocks at k = p/q and `_short_kernel`'s packings of them.  Only the
    latest table state is held, so a patched table drops every k of the old
    one.  The tables are compared with `==`, which short-circuits on the
    same table objects, so a call hashes nothing."""
    global _held
    tables = R2, S, X_TABLE["P"], X_TABLE["C"], X_TABLE["E"]
    held, state = _held
    if tables != held:
        state = *_y_blocks(tables), {}
        _held = tables, state
    return state


def _y_blocks(tables: tuple) -> tuple:
    """(e, blocks) for the tables (R2, S, X_P, X_C, X_E): blocks[kind] =
    e 4(k+1)^2 u^4 Y_kind, 2x2 integer polynomials in (k, v).  As X_kind is
    diagonal and R^-1 = 2 adj(R2) / det(R2), Y_kind[i][j] sums
    (S adj(R2))[i][s] R2[s][j] X_kind[s][s] / det(R2); e is det(R2) over
    the gcd of it and all those weights."""
    r2, s_table, *x_tables = tables
    left = _pmat_mul(_constant(s_table), _adj(_constant(r2)))
    weights = [[[left[i][s].get((0, 0), 0) * r2[s][j] for s in range(4)] for j in range(2)]
               for i in range(2)]
    det = _pdet(_constant(r2)).get((0, 0), 0)
    g = math.gcd(det, *(c for row in weights for entry in row for c in entry)) or 1
    blocks = {}
    for kind, x_table in zip("PCE", x_tables):
        xs = [{(i, j): c for j, ks in enumerate(entry) for i, c in enumerate(ks) if c}
              for entry in x_table]
        blocks[kind] = [[_padd(*({key: w // g * c for key, c in x.items()}
                                 for w, x in zip(ws, xs))) for ws in row] for row in weights]
    return det // g, blocks


def _integral_blocks(p: int, q: int) -> tuple:
    """The (den, block, norm) triples of P, C and E at k = p/q > 0, as nested
    tuples: `_state`'s block at k (times q^D, D = max(2, its degree in k), each
    entry an integer triple in v over 4 e (p+q)^2 q^(D-2)) with the common
    factor divided out of it and den, and norm the largest row sum of its 1-norms."""
    e, polys, _ = _state()
    triples = []
    for poly in polys.values():
        deg = max([2] + [i for row in poly for entry in row for i, _ in entry])
        entries = [[[sum(c * p**i * q ** (deg - i) for (i, j), c in entry.items() if j == v)
                     for v in range(3)] for entry in row] for row in poly]
        den = 4 * e * (p + q) ** 2 * q ** (deg - 2)
        g = math.gcd(den, *(c for row in entries for entry in row for c in entry))
        block = tuple(tuple(tuple(c // g for c in entry) for entry in row) for row in entries)
        norm = max(sum(abs(c) for entry in row for c in entry) for row in block)
        triples.append((den // g, block, norm))
    return tuple(triples)


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
    of the module docstring.  The first call at k evaluates the blocks there
    (`_integral_blocks`); the radix, d and the packed blocks depend only on k
    and the counts, and the first call at both packs them.  Raises
    CertificateError unless the trace is u^{4 tau - n} times a polynomial of
    degree <= n, i.e. unless (t-1)^n clears every denominator."""
    tau = len(letters)
    ks = _state()[2]
    at_k = ks.get((p, q))
    if at_k is None:
        at_k = ks[p, q] = _integral_blocks(p, q), {}
    triples, packed = at_k
    entry = packed.get((ell, m, tau))
    if entry is None:
        counts = (ell, m, tau - ell - m)
        bits = _radix_bits([norm ** c for (_, _, norm), c in zip(triples, counts)])
        den = math.prod(d ** c for (d, _, _), c in zip(triples, counts))
        mats = {x: _pack(block, bits) for x, (_, block, _), c in zip("PCE", triples, counts) if c}
        entry = packed[ell, m, tau] = bits, den, mats
    bits, den, mats = entry
    trace_v = balanced_digits(_packed_trace([mats[x] for x in letters]), bits, 2 * tau + 1)
    u_coeffs = [0] * (2 * len(trace_v))
    u_coeffs[::2] = trace_v
    n = tau + 2 * (ell + m)
    low = 4 * tau - n
    if any(u_coeffs[:low]) or any(u_coeffs[low + n + 1:]):
        k = p if q == 1 else f"{p}/{q}"
        raise CertificateError(f"u^{4 * tau} tr(prod) for {letters} at k={k} is not "
                               f"u^{low} times a polynomial of degree <= {n}")
    return u_coeffs[low:low + n + 1], den


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
    (coeffs, den): sum_i coeffs[i] u^i / den, u = t - 1.

    The charpoly is the kernel's short part plus the long-cycle monomial
    over one common denominator, in lowest terms; it must be monic of
    degree n (coeffs[n] = den), or CertificateError is raised.  The short
    part is handed on as computed (`t_json` prints it as its lowest terms).
    """
    k = as_rat(k)
    ell, m, n = w.ell, w.m, w.n
    (c, d), j = long_cycle_monomial(w.tau, ell, m, k)  # first, as it rejects k <= 0
    short, scale = _short_kernel(w.letters, ell, m, k.numerator, k.denominator)
    den = math.lcm(scale, d)
    coeffs = [x * (den // scale) for x in short]
    coeffs[j] += c * (den // d)
    coeffs, den = lowest_terms(coeffs, den)
    if len(coeffs) != n + 1 or coeffs[-1] != den:
        raise CertificateError(f"transfer charpoly of {w} at k={k} is not monic of degree {n}")
    return (coeffs, den), (short, scale)


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


def _pdet(m) -> dict:
    """The determinant of a square matrix of (k, v) polynomials, by Laplace
    expansion along its first row."""
    if len(m) == 1:
        return m[0][0]
    return _padd(*(_pmul({key: (-1) ** j * c for key, c in x.items()},
                         _pdet([row[:j] + row[j + 1:] for row in m[1:]]))
                   for j, x in enumerate(m[0])))


def _adj(m):
    """The adjugate, adj(m)[i][j] = (-1)^(i+j) det(m less row j and column i),
    so that m adj(m) = det(m) I."""
    return [[_pmul({(0, 0): (-1) ** (i + j)},
                   _pdet([row[:i] + row[i + 1:] for r, row in enumerate(m) if r != j]))
             for j in range(len(m))] for i in range(len(m))]


def _constant(matrix):
    return [[{(0, 0): c} if c else {} for c in row] for row in matrix]


def certify_identities() -> list:
    """Prove the identities behind the toggle symmetry for every k > 0 and
    t not in {0, 1, 2}.

    Q = R S R^-1 and the zero rows 2 and 3 of S (which make
    tr prod Q X = tr prod Y) are constant.  With R = R2 / 2, the first is
    Q R2 = R2 S in integers, checked beside det(R2) = 72: R is invertible,
    so the two say Q = R S R^-1.  The blocks Y_kind are integer
    polynomials in (k, v), v = (t-1)^2, over the common denominator
    e 4(k+1)^2 v^2, which is nonzero for k > 0 and t != 1; so each U
    identity, checked as an identity of polynomials, holds at every such
    point.  det U = -144 v (v - 1) vanishes exactly at t in {0, 1, 2}.
    Returns one entry per identity: its name, the largest degrees in k and
    in v of its two sides, and whether it holds.  Raises IdentityCheckError
    naming every identity that fails.
    """
    r2 = _constant(R2)
    yp, yc, ye = _state()[1].values()
    u = [[{(0, j): c for j, c in enumerate(entry) if c} for entry in row] for row in U_TABLE]
    sides = {
        "Q = R S R^-1": ([[_pdet(r2)]] + _pmat_mul(_constant(Q), r2),
                         [[{(0, 0): 72}]] + _pmat_mul(r2, _constant(S))),
        "S rows 2-3 = 0": (_constant(S[2:]), [[{}] * 4] * 2),
        "U Y_P = Y_C U": (_pmat_mul(u, yp), _pmat_mul(yc, u)),
        "U Y_C = Y_P U": (_pmat_mul(u, yc), _pmat_mul(yp, u)),
        "U Y_E = Y_E U": (_pmat_mul(u, ye), _pmat_mul(ye, u)),
        "det U = -144 v (v - 1)": ([[_pdet(u)]], [[{(0, 2): -144, (0, 1): 144}]]),
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
