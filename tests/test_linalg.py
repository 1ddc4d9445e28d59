import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cospec import linalg
from cospec.decomps import oracle_u
from cospec.errors import BudgetError, CertificateError, DegreeError
from cospec.graphs import WeightedGraph, assemble_ring, eigenvalues_numeric
from cospec.linalg import exact_u
from cospec.polynomials import lowest_terms, t_json
from cospec.rationals import Rat
from cospec.transfer import transfer_u
from cospec.words import parse_word, toggle, toggle_classes
from polynomial_reference import (
    Polynomial,
    charpoly_exact,
    charpoly_random_walk,
    charpoly_via_decompositions,
    random_walk_matrix,
)

words = st.text(alphabet="PCE", min_size=3, max_size=6).map(parse_word)


def ring(word, k=1):
    return assemble_ring(parse_word(word), k)


def poly(*coeffs_desc):
    """Polynomial from coefficients, highest degree first."""
    return Polynomial(tuple(reversed(coeffs_desc)))


K13 = WeightedGraph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
K22 = WeightedGraph(4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
# t(t-1)^2(t-2) = t^4 - 4t^3 + 5t^2 - 2t
KPQ_CHARPOLY = poly(1, -4, 5, -2, 0)


# ---------------------------------------------------------------- polynomials


def test_poly_equal_basic():
    assert poly(1, 0, 0) == poly(1, 0, 0)
    assert Polynomial((0, 0, 1)) == Polynomial((0, 0, 1, 0))
    assert poly(1, 0, 0) != poly(2, 0, 0)


def test_poly_arithmetic():
    p = poly(1, 1) * poly(1, -1)
    assert p == poly(1, 0, -1)
    assert p(3) == 8
    assert (p - p) == Polynomial()


@st.composite
def u_coefficients_and_den(draw):
    """Integer u-coefficients and a denominator that shares a factor with
    them, or den = 1."""
    shared = draw(st.integers(1, 10**6))
    coeffs = draw(st.lists(st.integers(-10**30, 10**30).map(lambda c: c * shared), max_size=12))
    den = draw(st.one_of(st.just(1), st.integers(1, 10**20).map(lambda d: d * shared)))
    return coeffs, den


@given(u_coefficients_and_den())
@settings(max_examples=200, deadline=None)
def test_from_u_coefficients_with_den_equals_shift_then_scale(case):
    coeffs, den = case
    expected = Polynomial()
    for i, c in enumerate(coeffs):
        expected = expected + Polynomial.t_minus_one_power(i).scale(c)
    assert Polynomial.from_u_coefficients(coeffs, den) == expected.scale(Rat(1, den))


@st.composite
def u_pairs(draw):
    """Integer u-coefficients, zero ones drawn often, with trailing zeros,
    over a nonzero denominator of either sign."""
    coeffs = draw(st.lists(st.one_of(st.just(0), st.integers(-10**30, 10**30)), max_size=10))
    coeffs += [0] * draw(st.integers(0, 3))
    return coeffs, draw(st.integers(-10**20, 10**20).filter(bool))


@given(u_pairs(), u_pairs(), st.integers(-10**6, 10**6).filter(bool), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_integer_hand_off_matches_polynomial(case, other, factor, zeros):
    coeffs, den = case
    poly = Polynomial.from_u_coefficients(coeffs, den)
    # the same polynomial scaled top and bottom, and an unrelated one
    scaled = ([c * factor for c in coeffs] + [0] * zeros, den * factor)
    for c, d in (scaled, other):
        assert (lowest_terms(c, d) == lowest_terms(coeffs, den)) == (
            Polynomial.from_u_coefficients(c, d) == poly)
    assert lowest_terms(*scaled) == lowest_terms(coeffs, den)


@st.composite
def lowest_pairs(draw):
    """Pairs from `lowest_terms`: zero, small negative and 200- to 260-bit
    coefficients over a den that shares a factor with some of them."""
    shared = draw(st.integers(1, 10**6))
    coeffs = draw(st.lists(st.one_of(
        st.just(0),
        st.integers(-10**6, 10**6).map(lambda c: c * shared),
        st.integers(2**200, 2**260).flatmap(lambda c: st.sampled_from([c, -c])),
    ), max_size=12))
    return lowest_terms(coeffs, draw(st.integers(1, 10**20)) * shared)


@given(lowest_pairs())
@example(((), 1))  # the zero polynomial
@example(((5,), 3))  # a constant
@example(((-3 * 2**201, 7, -6, 2**250), 6))  # den shares 2 and 3 with some coefficients
@settings(max_examples=200, deadline=None)
def test_t_json_matches_the_reference_rendering(pair):
    assert lowest_terms(*pair) == pair
    assert t_json(*pair) == Polynomial.from_u_coefficients(*pair).to_json()


@pytest.mark.parametrize("word", ["PCE", "PPCE", "CCEE"])
def test_routes_hand_off_one_pair(word):
    w, k = parse_word(word), Rat(7, 3)
    g = assemble_ring(w, k)
    assert exact_u(g) == transfer_u(w, k)[0] == oracle_u(g)


def test_t_minus_one_power():
    assert Polynomial.t_minus_one_power(2) == poly(1, -2, 1)
    assert Polynomial.t_minus_one_power(0) == poly(1)


def test_from_u_coefficients_is_taylor_shift():
    # 2 + 3(t-1)^2
    assert Polynomial.from_u_coefficients([2, 0, 3]) == poly(3, -6, 5)
    coeffs = [Rat(1, 3), -2, 0, Rat(5, 7), 4, -1]
    expected = Polynomial()
    for i, c in enumerate(coeffs):
        expected = expected + Polynomial.t_minus_one_power(i).scale(c)
    assert Polynomial.from_u_coefficients(coeffs) == expected
    product = poly(1)
    for _ in range(5):
        product = product * poly(1, -1)
    assert Polynomial.t_minus_one_power(5) == product


# ---------------------------------------------------------------- determinants


def bit_size(q) -> int:
    """Combined bit length of numerator and denominator (pivot heuristic)."""
    return int(q.numerator).bit_length() + int(q.denominator).bit_length()


def det_rational(matrix) -> Rat:
    """Determinant by exact Gaussian elimination, the pivot of least
    bit_size first to keep intermediate rationals small."""
    n = len(matrix)
    m = [list(row) for row in matrix]
    det = Rat(1)
    for col in range(n):
        rows = [r for r in range(col, n) if m[r][col] != 0]
        if not rows:
            return Rat(0)
        pivot_row = min(rows, key=lambda r: bit_size(m[r][col]))
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        pivot = m[col][col]
        det *= pivot
        for r in range(col + 1, n):
            factor = m[r][col] / pivot
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


def test_det_2x2():
    assert det_rational([[Rat(1), Rat(2)], [Rat(3), Rat(4)]]) == -2


def test_det_singular():
    assert det_rational([[Rat(1), Rat(2)], [Rat(2), Rat(4)]]) == 0


# ---------------------------------------------------------------- charpoly


def test_charpoly_k13():
    assert charpoly_exact(K13) == KPQ_CHARPOLY


def test_charpoly_k22():
    assert charpoly_exact(K22) == KPQ_CHARPOLY


def test_charpoly_eee():
    # t^3 - 3t^2 + (9/4)t, verified by hand decomposition enumeration
    assert charpoly_exact(ring("EEE")) == poly(1, -3, Rat(9, 4), 0)


def test_charpoly_rejects_isolated():
    with pytest.raises(DegreeError):
        charpoly_exact(WeightedGraph(3, [(0, 1, 1)]))


def test_charpoly_postcondition_raises(monkeypatch):
    # the kernel's output is monic of degree n whatever it computes, so
    # corrupt what the postcondition can see: det L and tr L
    kernel = linalg._charpoly_integer
    for corrupt in (lambda b: [b[0] + 1] + b[1:], lambda b: b[:-2] + [b[-2] + 1, b[-1]]):
        monkeypatch.setattr(linalg, "_charpoly_integer", lambda m: corrupt(kernel(m)))
        with pytest.raises(CertificateError):
            charpoly_exact(ring("EEE"))
    # u-coefficients 0 and 2 of EEE moved by -1 and +1: det L stays 0, tr L does not
    monkeypatch.setattr(linalg, "_charpoly_integer", kernel)
    walk = linalg._walk_charpoly

    def trace_off(g):
        coeffs, scale = walk(g)
        coeffs[0] -= 1
        coeffs[2] += 1
        return coeffs, scale

    monkeypatch.setattr(linalg, "_walk_charpoly", trace_off)
    with pytest.raises(CertificateError, match="t\\^2 coefficient"):
        charpoly_exact(ring("EEE"))


@given(words, st.sampled_from([Rat(1), Rat(2), Rat(1, 2)]))
@settings(max_examples=25, deadline=None)
def test_charpoly_structure(w, k):
    g = assemble_ring(w, k)
    p = charpoly_exact(g)
    assert p.degree == g.n and p.is_monic()
    # trace of L is n, eigenvalue 0 is simple for connected graphs
    assert p.coefficient(g.n - 1) == -g.n
    assert p.coefficient(0) == 0
    assert p.coefficient(1) != 0


def test_cospectrality_transfers_to_random_walk():
    # L-charpolys agree on the toggled pair iff the D^{-1}A ones do
    g1, g2 = ring("PPCCPPPC"), ring("CCPPCCCP")
    assert charpoly_exact(g1) == charpoly_exact(g2)
    assert charpoly_random_walk(g1) == charpoly_random_walk(g2)
    g3 = ring("PPPPPPPC")  # not the toggled partner: both must disagree
    assert charpoly_exact(g1) != charpoly_exact(g3)
    assert charpoly_random_walk(g1) != charpoly_random_walk(g3)


weights = st.builds(Rat, st.integers(1, 50), st.integers(1, 50))


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random extra edges, weights p/q <= 50/1."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v): draw(weights) for v in range(1, n)}
    vertex = st.integers(0, n - 1)
    for u, v, w in draw(st.lists(st.tuples(vertex, vertex, weights), max_size=n * (n - 1) // 2)):
        if u != v:
            edges[min(u, v), max(u, v)] = w
    return WeightedGraph(n, [(u, v, w) for (u, v), w in edges.items()])


def shifted(m, diag, sign):
    """diag * I + sign * m."""
    return [
        [(diag if i == j else 0) + sign * x for j, x in enumerate(row)] for i, row in enumerate(m)
    ]


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_charpolys_match_determinants_on_random_graphs(g):
    # the kernel scales W = D^-1 A to integers; the references eliminate
    # over the rationals at single points
    walk = random_walk_matrix(g)
    p, q = charpoly_exact(g), charpoly_random_walk(g)
    for x in (Rat(7, 2), Rat(-5, 3)):
        assert p(x) == det_rational(shifted(walk, x - 1, 1))
        assert q(x) == det_rational(shifted(walk, x, -1))
    if g.n <= 7:  # weighted K7 has 2,461 decompositions; K9 has 152,531
        assert charpoly_via_decompositions(g) == p


# ---------------------------------------------------------------- the multi-modular kernel


def berkowitz(m) -> list:
    """Integer coefficients of det(xI - m), constant term first: the
    reference for the multi-modular kernel.

    Berkowitz's division-free algorithm (1984): with m = [[a, R], [C, A]],
    det(xI - m) is the lower-triangular Toeplitz matrix with first column
    (1, -a, -RC, -RAC, ..., -RA^{s-1}C) applied to the coefficients of
    det(xI - A), where A is s x s.  Peeling one row and column at a time
    from the bottom right needs only integer products.
    """
    n = len(m)
    p = [1]  # det(xI - A) for the trailing block A, highest power first
    for r in range(n - 1, -1, -1):
        top = m[r][r + 1:]
        block = [row[r + 1:] for row in m[r + 1:]]
        v = [row[r] for row in m[r + 1:]]
        col = [1, -m[r][r]]
        for _ in range(n - r - 1):
            col.append(-sum(x * y for x, y in zip(top, v)))
            v = [sum(x * y for x, y in zip(row, v)) for row in block]
        p = [
            sum(col[i - j] * p[j] for j in range(min(i, len(p) - 1) + 1))
            for i in range(len(p) + 1)
        ]
    return p[::-1]


def sparse_rows(m):
    """The kernel's input for the dense integer matrix m: each row's
    (column, value) nonzeros."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in m]


def kernel_moduli(rows):
    return linalg._moduli(linalg._coefficient_bound(rows))


@st.composite
def integer_matrices(draw):
    """Square integer matrices: sparse or dense, entries up to 2^300 in
    size, with zero columns below the diagonal and singular ones drawn often."""
    n = draw(st.integers(0, 8))
    size = draw(st.sampled_from([3, 40, 140, 300]))
    entry = st.integers(-(2**size), 2**size)
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    m = [
        [draw(entry) if draw(st.floats(0, 1)) < density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    if n >= 3 and draw(st.booleans()):
        k = draw(st.integers(0, n - 3))
        for row in m[k + 1:]:  # column k is zero below the diagonal
            row[k] = 0
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        m[j] = [draw(st.integers(-3, 3)) * x for x in m[i]]  # rank drops
    return m


@given(integer_matrices())
@settings(max_examples=300, deadline=None)
def test_kernel_equals_berkowitz(m):
    assert linalg._charpoly_integer(sparse_rows(m)) == berkowitz(m)


@given(integer_matrices())
@example([[65537, 1], [1, 0]])  # the diagonal pivot vanishes modulo the check prime: a row swap
@example([[0, 0], [0, 65537]])  # det(x0 I - m) = 0
@settings(max_examples=300, deadline=None)
def test_bound_and_certificate_read_only_the_nonzeros(m):
    rows = sparse_rows(m)
    assert linalg._coefficient_bound(rows) == math.prod(
        2 + math.isqrt(sum(x * x for x in row)) for row in m)
    q, x0 = linalg._CHECK_PRIME, linalg._CHECK_POINT
    value = 0
    for c in reversed(berkowitz(m)):
        value = (value * x0 + c) % q
    assert linalg._det_mod(rows, x0, q) == value


def wide_diagonal(bits):
    """Diagonal entries +-2^bits meet the bound, and unit entries off the
    diagonal leave it unchanged: |det| is about 2^(4 bits)."""
    return [[(-1) ** i * 2**bits if i == j else int(j == (i + 1) % 4) for j in range(4)]
            for i in range(4)]


@pytest.mark.parametrize("bits, moduli_bits", [
    (10, (60,)), (30, (127,)), (37, (160,)), (50, (256,)), (100, (448,)), (200, (510,) * 2),
    (18, (89,)), (23, (107,)), (40, (192,)), (70, (320,)), (85, (384,)), (115, (510,)),
    (300, (510,) * 3), (7, (30,)), (950, (510,) * 8), (1100, (521, 607, 1279, 2203)),
])
def test_kernel_wide_coefficients_take_several_or_wide_moduli(bits, moduli_bits):
    # one rung of the ladder per bound below about 2^509; past it, |det| (about
    # 2^(4 bits)) is too wide for the set less its last prime
    m = wide_diagonal(bits)
    moduli = kernel_moduli(sparse_rows(m))
    assert tuple(p.bit_length() for p in moduli) == moduli_bits
    if len(moduli) > 1:
        assert 2 * abs(berkowitz(m)[0]) > math.prod(moduli[:-1])
    assert linalg._charpoly_integer(sparse_rows(m)) == berkowitz(m)


def test_moduli_are_the_first_set_over_twice_the_bound():
    sets = linalg._MODULUS_SETS
    products = [math.prod(s) for s in sets]
    assert products == sorted(products)
    assert all(linalg._CHECK_PRIME not in s for s in sets)
    # the ladder: one prime per set up to 510 bits, then sets of 510-bit
    # Proth primes and of Mersenne primes with CRT
    ladder = [s[0].bit_length() for s in sets if len(s) == 1]
    assert ladder == [30, 60, 89, 107, 127, 160, 192, 256, 320, 384, 448, 510]
    assert [len(s) for s in sets if s[0].bit_length() == 510] == list(range(1, 9))
    assert [p.bit_length() for p in sets[-1]] == [
        521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937]
    # 2^508 - 1 is the last bound of this form the 510-bit rung covers
    for bits in [*range(1, 2000, 7), 508, 509]:
        bound = 2**bits - 1
        moduli = linalg._moduli(bound)
        i = sets.index(moduli)
        assert math.prod(moduli) > 2 * bound and (i == 0 or products[i - 1] <= 2 * bound)
        assert len(moduli) == 1 or bits > 508
    # past every set the route is out of capacity: exit 3, not a usage error
    with pytest.raises(BudgetError, match="exceed the product of the listed moduli"):
        linalg._moduli(products[-1])


def lucas_lehmer(e: int) -> bool:
    m, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def proth(h: int, s: int, a: int) -> bool:
    """Proth's theorem: N = h 2^s + 1 with 0 < h < 2^s is prime if
    a^((N-1)/2) = -1 modulo N for some a; for a composite N no a passes."""
    n = (h << s) + 1
    return 0 < h < 1 << s and pow(a, (n - 1) // 2, n) == n - 1


def test_moduli_are_mersenne_primes():
    primes = set(linalg._SMALL_PRIMES + linalg._LARGE_PRIMES)
    for p in primes:
        e = p.bit_length()
        assert p == (1 << e) - 1
        if e <= 4423:  # Lucas-Lehmer beyond that takes seconds each
            assert lucas_lehmer(e)
    assert not lucas_lehmer(67)  # 2^67 - 1 = 193707721 * 761838257287


def test_proth_moduli_are_proven_primes():
    ladder = {s[0] for s in linalg._MODULUS_SETS if len(s) == 1}
    for h, s, a in linalg._PROTH_PRIMES:
        assert proth(h, s, a) and (h << s) + 1 in ladder
        # the entry with h moved to the next h' making h' 2^s + 1 a multiple of 3 fails
        composite = next(x for x in range(h + 1, h + 4) if ((x << s) + 1) % 3 == 0)
        assert not proth(composite, s, a)


def test_every_modulus_and_the_check_prime_are_proven_primes():
    proth_tables = linalg._PROTH_PRIMES + linalg._WIDE_PRIMES + (linalg._CHECK_PROTH,)
    witnessed = {(h << s) + 1: (h, s, a) for h, s, a in proth_tables}
    primes = {p for s in linalg._MODULUS_SETS for p in s}
    assert linalg._CHECK_PRIME not in primes
    for p in primes | {linalg._CHECK_PRIME}:
        if p in witnessed:
            assert proth(*witnessed[p])
        else:  # Lucas-Lehmer beyond 2^4423 - 1 takes seconds each
            e = p.bit_length()
            assert p == (1 << e) - 1 and (e > 4423 or lucas_lehmer(e))
    assert len(witnessed) == len(proth_tables) == 17


def test_each_rung_takes_more_digits_than_the_last():
    # CPython stores an int in 30-bit digits (sys.int_info.bits_per_digit
    # on 3.10 to 3.13), and a rung with as many digits as the next one up
    # costs as much per pass and serves fewer bounds
    digits = [-(-s[0].bit_length() // 30) for s in linalg._MODULUS_SETS if len(s) == 1]
    assert digits == sorted(set(digits)) and digits[:2] == [1, 2]
    assert {-(-p.bit_length() // 30) for p in linalg._WIDE} == {17}
    assert linalg._CHECK_PRIME < 1 << 30


def test_the_largest_bound_of_each_set_lands_on_it_and_the_next_on_the_next_set():
    sets = linalg._MODULUS_SETS
    for moduli, following in zip(sets, sets[1:]):
        largest = (math.prod(moduli) - 1) // 2
        assert linalg._moduli(largest) == moduli
        assert linalg._moduli(largest + 1) == following
    with pytest.raises(BudgetError):
        linalg._moduli((math.prod(sets[-1]) - 1) // 2 + 1)


# n = 38; its bound, 2^154, takes the 160-bit Proth prime, and its
# coefficients reach 121 bits
WIDE = "CCEECECPEECPPPPP"
# n = 30; its bound takes the 160-bit Proth prime, and its coefficients
# reach 131 bits, past what 2^127 - 1 can hold
WIDER = "CPEECCCPCPCE"


def test_corrupt_residue_fails_the_point_certificate(monkeypatch):
    m = [[(i * 7 + j * 3) % 11 - 5 for j in range(6)] for i in range(6)]
    g = ring(WIDE, Rat(7, 3))
    kernel = linalg._charpoly_mod
    for index in (0, 3, 6):
        def corrupt(rows, p, index=index):
            # only modulo the first prime of the set, so a CRT sees it once
            residues = kernel(rows, p)
            if p == kernel_moduli(rows)[0]:
                i = index % len(residues)
                residues[i] = (residues[i] + 1) % p
            return residues
        monkeypatch.setattr(linalg, "_charpoly_mod", corrupt)
        for matrix in (m, wide_diagonal(200)):
            with pytest.raises(CertificateError, match="disagrees with det"):
                linalg._charpoly_integer(sparse_rows(matrix))
        with pytest.raises(CertificateError):
            charpoly_exact(g)


def test_one_modulus_too_few_fails_the_point_certificate(monkeypatch):
    # one step down the list of sets, or a multi-prime set less one prime,
    # cannot hold these coefficients
    sets = linalg._MODULUS_SETS
    moduli = linalg._moduli
    single, multi = sparse_rows(wide_diagonal(37)), sparse_rows(wide_diagonal(200))
    g = ring(WIDER, Rat(13, 9))
    assert len(kernel_moduli(single)) == 1 and len(kernel_moduli(multi)) == 2

    def step_down(s):
        return sets[sets.index(s) - 1]

    for smaller in (lambda s: s[1:], lambda s: s[:-1], step_down):
        monkeypatch.setattr(linalg, "_moduli", lambda bound: smaller(moduli(bound)))
        with pytest.raises(CertificateError, match="disagrees with det"):
            linalg._charpoly_integer(multi)
    # step_down is still in place: a single prime one rung too small
    with pytest.raises(CertificateError, match="disagrees with det"):
        linalg._charpoly_integer(single)
    with pytest.raises(CertificateError):
        charpoly_exact(g)


def test_one_prime_read_back_equals_crt(monkeypatch):
    # every bound here takes one prime; the same graphs rebuilt by CRT from
    # two primes whose product also exceeds twice the bound
    two = ((1 << 61) - 1, (1 << 89) - 1)
    graphs = [assemble_ring(x, k) for k in (Rat(1), Rat(7, 3))
              for w, _ in toggle_classes(3, 6) for x in (w, toggle(w))]
    moduli = linalg._moduli
    seen = []

    def record(bound):
        seen.append(moduli(bound))
        assert 2 * bound < math.prod(two)
        return seen[-1]

    monkeypatch.setattr(linalg, "_moduli", record)
    single = [exact_u(g) for g in graphs]
    assert len(seen) == len(graphs) and all(len(s) == 1 for s in seen)
    monkeypatch.setattr(linalg, "_moduli", lambda bound: two)
    assert [exact_u(g) for g in graphs] == single


@pytest.mark.parametrize("word, moduli_bits", [
    (WIDE, (160,)),  # one Proth prime
    ("PCE" * 20, (510, 510)),  # a 2^566 bound: two 510-bit Proth primes, then CRT
])
def test_exact_u_runs_each_elimination_once_per_modulus(monkeypatch, word, moduli_bits):
    calls = []
    for name in ("_charpoly_mod", "_det_mod"):
        def counted(rows, *args, kernel=getattr(linalg, name), name=name):
            calls.append((name, args[-1].bit_length()))  # the prime
            return kernel(rows, *args)
        monkeypatch.setattr(linalg, name, counted)
    exact_u(ring(word, Rat(7, 3)))
    assert [bits for name, bits in calls if name == "_charpoly_mod"] == list(moduli_bits)
    assert len(calls) == len(moduli_bits) + 1 and calls[-1] == ("_det_mod", 30)


def test_empty_graph_is_the_empty_determinant():
    g = WeightedGraph(0, [])
    assert exact_u(g) == oracle_u(g) == ((1,), 1)


# ---------------------------------------------------------------- eigenvalues


def test_eigenvalues_k13():
    assert np.allclose(eigenvalues_numeric(K13), [0, 1, 1, 2], atol=1e-12)


def test_eigenvalues_eee():
    assert np.allclose(eigenvalues_numeric(ring("EEE")), [0, 1.5, 1.5], atol=1e-12)


def test_eigenvalues_single_edge():
    g = WeightedGraph(2, [(0, 1, 7)])
    assert np.allclose(eigenvalues_numeric(g), [0, 2], atol=1e-12)


@given(words)
@settings(max_examples=15, deadline=None)
def test_numeric_eigenvalues_are_charpoly_roots(w):
    g = assemble_ring(w, 1)
    p = charpoly_exact(g)
    coeffs = np.array([float(c) for c in p.coeffs])
    scale = np.max(np.abs(coeffs))
    for lam in eigenvalues_numeric(g):
        value = sum(float(c) * lam**i for i, c in enumerate(p.coeffs))
        assert abs(value) / scale <= 1e-8
