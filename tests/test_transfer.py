import math

import pytest
from hypothesis import given, settings, strategies as st

from cospec import transfer
from cospec.cli import main
from cospec.errors import CertificateError, IdentityCheckError, ParameterError
from cospec.graphs import assemble_ring
from cospec.polynomials import balanced_digits, lowest_terms, t_json
from cospec.rationals import Rat
from cospec.transfer import certify_identities
from cospec.words import canonical_words, parse_word, toggle, toggle_classes
from polynomial_reference import Polynomial, charpoly_exact, charpoly_via_transfer, short_part
from transfer_reference import (
    mat_inv,
    mat_mul,
    poly_mat_mul,
    q_matrix,
    r_matrix,
    s_matrix,
    short_part_via_qx,
    u_matrix,
    x_diagonal_v,
    x_matrix,
    y_block,
    y_block_reference,
    y_weights,
)

words = st.text(alphabet="PCE", min_size=3, max_size=6).map(parse_word)
sample_ks = [Rat(1), Rat(2), Rat(1, 2), Rat(7, 3)]
sample_ts = [Rat(3), Rat(4), Rat(5), Rat(-1), Rat(7, 2)]


# ------------------------------------------------------------- fixed matrices


def test_q_rows():
    Q = transfer.Q
    assert Q[0] == (1, 1, 1, 1)
    assert Q[2] == (1, 0, 1, 0)  # the "-" row


def test_mat_inv_roundtrip():
    m = [[Rat(2), Rat(1)], [Rat(5), Rat(3)]]
    assert mat_mul(m, mat_inv(m)) == [[1, 0], [0, 1]]


def test_y_weights_match_the_gauss_jordan_derivation():
    # the route's integer S adj(2R) against 2R, reduced by the gcd, against
    # S R^-1 against R from the reference's rational matrices and inverse
    assert [list(row) for row in transfer.Q] == q_matrix()
    assert [list(row) for row in transfer.R2] == [[2 * x for x in row] for row in r_matrix()]
    assert [list(row) for row in transfer.S] == s_matrix()
    # with X = diag(1, k, k^2, k^3) in every kind, Y[i][j]'s k^s coefficient
    # is the weight of state s
    powers = tuple(((0,) * s + (1,), (), ()) for s in range(4))
    e, blocks = transfer._y_blocks((transfer.R2, transfer.S) + (powers,) * 3)
    weights = [[[entry.get((s, 0), 0) for s in range(4)] for entry in row] for row in blocks["P"]]
    expected = ([[[8, 4, 4, 2], [-8, -4, 8, 4]], [[2, -2, 1, -1], [-2, 2, 2, -2]]], 6)
    assert (weights, e) == y_weights() == expected


def test_x_e_corner_entry():
    for t in (Rat(3), Rat(7, 2)):
        X = x_matrix("E", Rat(2), t)
        assert X[3][3] == Rat(-1) / (4 * (t - 1) ** 2)
        assert X[1][1] == 0 and X[2][2] == 0


def test_x_p_signed_entry():
    X = x_matrix("P", Rat(1), Rat(3))
    assert X[1][1] == Rat(-1, 16)


def test_x_c_empty_entry():
    k, t = Rat(2), Rat(4)
    X = x_matrix("C", k, t)
    assert X[0][0] == 1 - k * k / ((t - 1) ** 2 * (k + 1) ** 2)


def test_x_rejects_pole_and_bad_k():
    with pytest.raises(ZeroDivisionError):
        x_matrix("P", 1, 1)
    with pytest.raises(ParameterError):
        x_matrix("P", 0, 3)
    with pytest.raises(ParameterError):
        x_matrix("Q", 1, 3)


def test_x_table_matches_closed_forms():
    # u^4 X written out per state as triples in v, independent of X_TABLE
    zero, one = Rat(0), Rat(1)
    for k in (Rat(1), Rat(7, 3), Rat(2, 5), Rat(5)):
        kk1 = (k + 1) ** 2
        side_p, side_c = -k / (2 * k + 2), -k / (2 * kk1)
        expected = {
            "P": [(zero, zero, one), (zero, side_p, zero), (zero, side_p, zero),
                  (k * k / (4 * kk1), -1 / (4 * kk1), zero)],
            "C": [(zero, -k * k / kk1, one), (zero, side_c, zero), (zero, side_c, zero),
                  (zero, -1 / (4 * kk1), zero)],
            "E": [(zero, zero, one), (zero,) * 3, (zero,) * 3, (zero, Rat(-1, 4), zero)],
        }
        for kind, diag in expected.items():
            assert x_diagonal_v(kind, k) == diag, (kind, k)


def det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def test_u_matrix_entries():
    assert u_matrix(Rat(3)) == [[78, -132], [33, -78]]  # v = 4
    for t in (Rat(3), Rat(-1), Rat(7, 2)):
        v = (t - 1) ** 2
        table = [[c0 + c1 * v for c0, c1 in row] for row in transfer.U_TABLE]
        assert table == u_matrix(t)


def test_u_invertible_exactly_off_excluded_points():
    for t in sample_ts:
        v = (t - 1) ** 2
        assert det2(u_matrix(t)) == -144 * v * (v - 1) != 0
    assert det2(u_matrix(Rat(0))) == det2(u_matrix(Rat(1))) == det2(u_matrix(Rat(2))) == 0


# ------------------------------------------------------------- identities


def evaluate(poly, k, v):
    """A polynomial {(i, j): c} of the certificate at k and v."""
    return sum(c * k**i * v**j for (i, j), c in poly.items())


@pytest.mark.parametrize("k", sample_ks)
@pytest.mark.parametrize("t", sample_ts)
def test_build_transfer_identities(k, t):
    # the certificate's blocks, polynomials in (k, v) over e 4(k+1)^2 v^2,
    # are the hand-written closed forms at each sample point
    e, blocks, _ = transfer._state()
    v = (t - 1) ** 2
    den = e * 4 * (k + 1) ** 2 * v * v
    for kind in "PCE":
        block = [[evaluate(p, k, v) / den for p in row] for row in blocks[kind]]
        assert block == y_block_reference(kind, k, t)


def test_identity_checks_raise(monkeypatch):
    monkeypatch.setattr(transfer, "S", ((1,) * 4,) * 4)
    with pytest.raises(IdentityCheckError, match=r"Q = R S R\^-1; S rows 2-3 = 0"):
        certify_identities()


def test_singular_r2_fails_only_q(monkeypatch):
    # a rank-1 R2 has adj(R2) = 0, so every Y block is zero and the U
    # identities hold; det(R2) = 72 is what rejects it
    monkeypatch.setattr(transfer, "R2", (transfer.R2[0],) * 4)
    with pytest.raises(IdentityCheckError, match=r": Q = R S R\^-1$"):
        certify_identities()


def test_r2_that_intertwines_but_is_singular_fails_only_q(monkeypatch):
    # 2R's first column is an eigenvector of Q for 3, and S's first row is
    # (3, 0, 0, 0), so that column alone has Q 2R = 2R S; det(2R) = 72 is
    # what rejects it
    monkeypatch.setattr(transfer, "R2", tuple((row[0], 0, 0, 0) for row in transfer.R2))
    with pytest.raises(IdentityCheckError, match=r": Q = R S R\^-1$"):
        certify_identities()


P_TABLE, C_TABLE, E_TABLE = (transfer.X_TABLE[kind] for kind in "PCE")
R2_TABLE, U_TABLE = transfer.R2, transfer.U_TABLE


@pytest.mark.parametrize(
    "name,value",
    [
        # P's "+" entry: -2k^2 v -> -3k^2 v
        ("P", (P_TABLE[0], ((), (0, -2, -3), ())) + P_TABLE[2:]),
        # C's a-b weight k^2 -> k: the empty state's -4k^2 v -> -4k v
        ("C", (((), (0, -4), (4, 8, 4)),) + C_TABLE[1:]),
        # U[0][0] = 20v - 2 -> 21v - 2
        ("U_TABLE", (((-2, 21), (-4, -32)),) + U_TABLE[1:]),
        # 2R[3][3] = 0 -> 1, which also fails Q = R S R^-1
        ("R2", R2_TABLE[:3] + ((1, 2, -4, 1),)),
    ],
    ids=["table-coefficient", "c-weight-k", "u-entry", "r2-entry"],
)
def test_identities_mutation_exits_1(capsys, monkeypatch, name, value):
    assert main(["identities"]) == 0
    capsys.readouterr()
    if name in ("U_TABLE", "R2"):
        monkeypatch.setattr(transfer, name, value)
    else:
        monkeypatch.setitem(transfer.X_TABLE, name, value)
    assert main(["identities"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "U Y_P = Y_C U" in err
    assert ("Q = R S R^-1" in err) == (name == "R2")
    assert ("det U" in err) == (name == "U_TABLE")


Q_AND_U_Y = "Q = R S R^-1; U Y_P = Y_C U; U Y_C = Y_P U; U Y_E = Y_E U"


@pytest.mark.parametrize(
    "name,value,word,failing",
    [
        ("R2", R2_TABLE[:3] + ((1, 2, -4, 1),), None, Q_AND_U_Y),  # 2R[3][3] = 0 -> 1
        ("S", ((3, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 0)), None, Q_AND_U_Y),
        ("U_TABLE", (((-2, 21), (-4, -32)),) + U_TABLE[1:], None,  # U[0][0] = 21v - 2
         "U Y_P = Y_C U; U Y_C = Y_P U; U Y_E = Y_E U; det U = -144 v (v - 1)"),
        # P's "+" entry -2k^2 v -> -3k^2 v; C's empty entry -4k^2 v -> -3k^2 v;
        # E's "+/-" entry -k^2 v -> -2k^2 v
        ("P", (P_TABLE[0], ((), (0, -2, -3), ())) + P_TABLE[2:], "PPP",
         "U Y_P = Y_C U; U Y_C = Y_P U"),
        ("C", (((), (0, 0, -3), (4, 8, 4)),) + C_TABLE[1:], "CCC", "U Y_P = Y_C U; U Y_C = Y_P U"),
        ("E", E_TABLE[:3] + (((), (-1, -2, -2), ()),), "EEE", "U Y_E = Y_E U"),
    ],
    ids=["r2", "s", "u-table", "x-p", "x-c", "x-e"],
)
def test_a_table_patched_after_passing_runs_takes_effect(capsys, monkeypatch, name, value, word,
                                                         failing):
    # no cache is cleared: after passing runs, the patch fails the same
    # identities, and verify, as it does when patched before a process's
    # first call; restored, both pass again
    argvs = [["identities"]]
    if word:
        argvs.append(["verify", "--word", word, "--k", "2", "--method", "all"])

    def run():
        codes = [main(argv) for argv in argvs]
        return codes, capsys.readouterr().err

    assert run()[0] == [0] * len(argvs)
    if name in transfer.X_TABLE:
        monkeypatch.setitem(transfer.X_TABLE, name, value)
    else:
        monkeypatch.setattr(transfer, name, value)
    codes, err = run()
    assert codes == [1] * len(argvs)
    assert err.startswith(f"error: identities fail as polynomials in (k, v): {failing}\n")
    monkeypatch.undo()
    assert run()[0] == [0] * len(argvs)


@pytest.mark.parametrize("kind", "PCE")
@pytest.mark.parametrize("k", sample_ks)
def test_y_blocks_match_reference_forms(kind, k):
    # the kernel's integer block d u^4 Y at v = (t-1)^2, over d u^4
    blocks = transfer._integral_blocks(k.numerator, k.denominator)
    d, block, _ = blocks["PCE".index(kind)]
    for t in sample_ts:
        v = (t - 1) ** 2
        kernel = [[sum(c * v**p for p, c in enumerate(entry)) / (d * v * v) for entry in row]
                  for row in block]
        assert y_block(kind, k, t) == kernel == y_block_reference(kind, k, t)


# ------------------------------------------------------------- short part


def test_short_part_eee():
    # total triangle charpoly minus the long part 1/4
    expected = Polynomial.t_minus_one_power(3) + Polynomial.t_minus_one_power(1).scale(
        Rat(-3, 4)
    )
    assert short_part(parse_word("EEE"), 1) == expected


def test_short_part_via_y_agrees():
    for word, k in [("EEE", Rat(1)), ("PCE", Rat(2)), ("PPP", Rat(1, 2))]:
        w = parse_word(word)
        assert short_part(w, k) == short_part_via_qx(w, k)


@pytest.mark.parametrize("k", [Rat(1), Rat(7, 3), Rat(5, 7)])
def test_short_part_matches_qx_reference_up_to_tau_8(k):
    # the packed 2x2 kernel against the schoolbook 4x4 Q X product
    for w in canonical_words(3, 8):
        assert short_part(w, k) == short_part_via_qx(w, k), w


def test_block_reduction_at_sample_point():
    k, t = Rat(1), Rat(4)
    qx = mat_mul(q_matrix(), x_matrix("P", k, t))
    prod4 = mat_mul(mat_mul(qx, qx), qx)
    y = y_block("P", k, t)
    prod2 = mat_mul(mat_mul(y, y), y)
    assert sum(prod4[i][i] for i in range(4)) == sum(prod2[i][i] for i in range(2))


def trace_of_product(mats):
    prod = mats[0]
    for m in mats[1:]:
        prod = mat_mul(prod, m)
    return sum(prod[i][i] for i in range(len(prod)))


@given(st.text(alphabet="PCE", min_size=3, max_size=8).map(parse_word), st.sampled_from(sample_ks))
@settings(max_examples=25, deadline=None)
def test_short_part_matches_pointwise_products(w, k):
    # the kernel works symbolically in u; these references multiply the
    # blocks at one rational t and never see u
    via_qx, via_y = short_part_via_qx(w, k), short_part(w, k)
    for t in (Rat(7, 2), Rat(-1, 3)):
        qx = trace_of_product([mat_mul(q_matrix(), x_matrix(l, k, t)) for l in w])
        y = trace_of_product([y_block_reference(l, k, t) for l in w])
        assert qx == y
        assert via_qx(t) == via_y(t) == (t - 1) ** w.n * qx


def norm(m):
    return max(sum(abs(c) for entry in row for c in entry) for row in m)


def kernel_product(mats, bits=None):
    """The product of 2x2 matrices of integer coefficient triples by the
    route's kernel (`_pack`, then `_packed_trace`): each entry [i][j] read as
    the trace of the product times the unit matrix E_ji, the trace from the
    trace-only last step itself, and the radix used."""
    if bits is None:
        bits = transfer._radix_bits([norm(m) for m in mats])
    packed = [transfer._pack(m, bits) for m in mats]

    def read(tail):  # a unit matrix has norm 1, so the radix bound still holds
        return balanced_digits(transfer._packed_trace(packed + tail), bits, 2 * len(mats) + 1)

    entries = [[read([tuple(int(x == 2 * j + i) for x in range(4))]) for j in range(2)]
               for i in range(2)]
    trace = read([] if len(packed) > 1 else [(1, 0, 0, 1)])  # the kernel takes r >= 2
    return entries, trace, bits


@st.composite
def block_lists(draw):
    """Lists of 2x2 matrices of integer coefficient triples in v: the
    kernel's blocks are of degree <= 2 in v, and only 2x2."""
    top = 2 ** draw(st.sampled_from([1, 8, 64, 200]))
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([-top, 0, top]))
    entry = st.one_of(st.just([0] * 3), st.lists(coeff, min_size=3, max_size=3))
    matrix = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
    return draw(st.lists(matrix, min_size=1, max_size=5))


@given(block_lists())
@settings(max_examples=150, deadline=None)
def test_packed_product_equals_schoolbook(mats):
    expected = mats[0]
    for m in mats[1:]:
        expected = poly_mat_mul(expected, m)
    entries, trace, _ = kernel_product(mats)
    assert entries == expected
    assert trace == [sum(c) for c in zip(expected[0][0], expected[1][1])]


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_packed_product_reads_coefficients_at_the_bound(count, sign):
    # c I has norm |c|, and tr (c I)^count = 2 c^count reaches the bound
    # 2 |c|^count exactly
    c = sign * 2**40
    mats = [[[[c, 0, 0], [0, 0, 0]], [[0, 0, 0], [c, 0, 0]]]] * count
    zero = [0] * (2 * count + 1)
    power = [c**count] + zero[1:]
    entries, trace, bits = kernel_product(mats)
    assert entries == [[power, zero], [zero, power]] and trace == [2 * c**count] + zero[1:]
    if c**count > 0:  # one bit fewer misreads it
        assert kernel_product(mats, bits - 1)[1] != trace


@given(
    st.text(alphabet="PCE", min_size=3, max_size=24).map(parse_word),
    st.builds(Rat, st.integers(1, 10**6), st.integers(1, 10**6)),
)
@settings(max_examples=80, deadline=None)
def test_transfer_u_matches_schoolbook_reference(w, k):
    # the straight-line kernel against the 4x4 Q X product of X_TABLE in
    # rationals, plus the long-cycle part's rational formula
    charpoly, short = transfer.transfer_u(w, k)
    expected = short_part_via_qx(w, k)
    assert Polynomial.from_u_coefficients(*short) == expected
    e = w.ell + w.m
    long_part = Rat((-1) ** (w.tau - 1), 2 ** (w.tau - 1)) / (k + 1) ** e
    expected += Polynomial.t_minus_one_power(2 * e).scale(long_part)
    assert Polynomial.from_u_coefficients(*charpoly) == expected


def test_short_part_certificate_rejects_uncleared_denominators(monkeypatch):
    # u^4 X = constant means X ~ u^-4: (t-1)^n cannot clear tau such factors
    for kind in "PCE":  # 4(k+1)^2 u^4 X = 4(k+1)^2 in every state
        monkeypatch.setitem(transfer.X_TABLE, kind, (((4, 8, 4), (), ()),) * 4)
    # k prints as p, or as p/q when q > 1
    for k, text in ((1, "1"), (Rat(7, 3), "7/3")):
        with pytest.raises(CertificateError, match=rf"for PCE at k={text} is not u\^5 times"):
            short_part(parse_word("PCE"), k)


@pytest.mark.parametrize(
    "kind,state,power,value,word",
    [
        ("P", 1, 1, (0, -2, -3), "PPP"),  # P's "+" entry: -2k^2 v -> -3k^2 v
        ("C", 0, 1, (0, 0, -3), "CCC"),  # C's empty entry: -4k^2 v -> -3k^2 v
        ("E", 3, 1, (-1, -2, -2), "EEE"),  # E's "+/-" entry: -k^2 v -> -2k^2 v
    ],
)
def test_one_table_coefficient_fails_the_proof_and_the_kernel(
    capsys, monkeypatch, kind, state, power, value, word
):
    # the kernel multiplies the blocks the proof reads: a wrong table entry
    # fails both, the kernel against the exact route
    argv = ["verify", "--word", word, "--k", "2", "--method", "all"]
    assert main(argv) == 0
    capsys.readouterr()
    entry = list(transfer.X_TABLE[kind][state])
    entry[power] = value
    table = list(transfer.X_TABLE[kind])
    table[state] = tuple(entry)
    monkeypatch.setitem(transfer.X_TABLE, kind, tuple(table))
    with pytest.raises(IdentityCheckError):
        certify_identities()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert ('"transfer_matches_exact": false' in out) or err.startswith("error: ")


def test_blocks_built_once_per_table_kind_and_k(capsys, monkeypatch):
    # -R2 conjugates as R2 does, so the blocks are the same, but it is a new
    # table state, with nothing derived from it yet (the memo is emptied, and
    # put back as it was after the test)
    monkeypatch.setattr(transfer, "_held", (None, None))
    monkeypatch.setattr(transfer, "R2", tuple(tuple(-x for x in row) for row in transfer.R2))
    derived, evaluated = [], []
    adj, integral_blocks = transfer._adj, transfer._integral_blocks
    # _adj runs once per (k, v) derivation, and _integral_blocks once per k
    monkeypatch.setattr(transfer, "_adj", lambda m: derived.append(1) or adj(m))
    monkeypatch.setattr(transfer, "_integral_blocks", lambda p, q:
                        evaluated.append((p, q)) or integral_blocks(p, q))

    def ks():
        return transfer._state()[2]

    k = Rat(5, 7)
    ws = [parse_word(s) for s in ("PCE", "PPCCE", "EEE", "CCCPEP")]
    polys = [(short_part(w, k), charpoly_via_transfer(w, k)) for w in ws]
    # blocks served from the memo give the same polynomials
    assert [(short_part(w, k), charpoly_via_transfer(w, k)) for w in ws] == polys
    assert all(p == short_part_via_qx(w, k) for w, (p, _) in zip(ws, polys))
    # one evaluation at k, and one packing per letter-count triple
    assert (len(derived), evaluated, list(ks())) == (1, [(5, 7)], [(5, 7)])
    assert len(ks()[5, 7][1]) == len(ws)
    # the triples are nested tuples: they hash (else TypeError), and nothing can change them
    hash(integral_blocks(5, 7))
    # a scan at 22 k still derives the (k, v) blocks once, and evaluates
    # each k once: the state holds every k
    scan_ks = [(j, 29) for j in range(1, 23)]
    argv = ["scan", "--tau-max", "6", "--k", ",".join(f"{p}/{q}" for p, q in scan_ks),
            "--method", "transfer"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(derived) == 1 and evaluated == list(ks()) == [(5, 7)] + scan_ks
    # the restored table is one more state, derived once, with only its own k
    monkeypatch.setattr(transfer, "R2", R2_TABLE)
    for k in (Rat(1, 31), Rat(2, 31)):
        transfer.transfer_u(ws[0], k)
    assert len(derived) == 2 and evaluated[-2:] == list(ks()) == [(1, 31), (2, 31)]


def test_scan_evaluates_its_k_once(capsys, monkeypatch):
    # an empty memo, put back as it was after the test
    monkeypatch.setattr(transfer, "_held", (None, None))
    evaluated, integral_blocks = [], transfer._integral_blocks
    monkeypatch.setattr(transfer, "_integral_blocks", lambda *args:
                        evaluated.append(args) or integral_blocks(*args))
    assert main(["scan", "--tau-max", "8", "--k", "5/9", "--method", "transfer"]) == 0
    capsys.readouterr()
    assert len(evaluated) == 1


def test_blocks_packed_once_per_table_state_k_and_letter_counts(capsys, monkeypatch):
    # a new table state (-R2 conjugates as R2 does) in an emptied memo, so
    # nothing is packed yet
    monkeypatch.setattr(transfer, "_held", (None, None))
    monkeypatch.setattr(transfer, "R2", tuple(tuple(-x for x in row) for row in transfer.R2))
    packed, counts, radices, derived = [], [], [], []
    pack, kernel, digits, adj = (transfer._pack, transfer._short_kernel,
                                 transfer.balanced_digits, transfer._adj)
    monkeypatch.setattr(transfer, "_pack", lambda block, bits: packed.append((block, bits))
                        or pack(block, bits))
    monkeypatch.setattr(transfer, "_short_kernel", lambda letters, ell, m, p, q:
                        counts.append((ell, m, len(letters) - ell - m))
                        or kernel(letters, ell, m, p, q))
    monkeypatch.setattr(transfer, "balanced_digits", lambda x, bits, count:
                        radices.append(bits) or digits(x, bits, count))
    monkeypatch.setattr(transfer, "_adj", lambda m: derived.append(1) or adj(m))
    argv = ["scan", "--tau-max", "6", "--k", "3/41", "--method", "transfer"]
    assert main(argv) == 0
    capsys.readouterr()
    triples = transfer._integral_blocks(3, 41)

    def radix(cs):
        return transfer._radix_bits([norm ** c for (_, _, norm), c in zip(triples, cs)])

    # each word's radix is its own counts' proven radix
    assert len(counts) > len(set(counts)) > 1
    assert radices == [radix(cs) for cs in counts]
    # each kind a word uses is packed once per distinct letter-count triple
    expected = sorted((block, radix(cs))
                      for cs in set(counts) for (_, block, _), c in zip(triples, cs) if c)
    assert sorted(packed) == expected
    # the state holds k's blocks and one packing per counts: the radix, the
    # denominator and the packed blocks by letter
    ks = transfer._state()[2]
    assert list(ks) == [(3, 41)] and ks[3, 41][0] == triples
    old = ks[3, 41][1]
    assert sorted(old) == sorted((ell, m, ell + m + e) for ell, m, e in set(counts))
    for (ell, m, tau), (bits, den, mats) in old.items():
        cs = (ell, m, tau - ell - m)
        assert bits == radix(cs)
        assert den == math.prod(d ** c for (d, _, _), c in zip(triples, cs))
        assert mats == {x: pack(block, bits)
                        for x, (_, block, _), c in zip("PCE", triples, cs) if c}
    # a second scan at the same k packs nothing, and its kernel reads the same radices
    first = len(counts)
    assert main(argv) == 0
    capsys.readouterr()
    assert counts[first:] == counts[:first] and radices[first:] == radices[:first]
    assert len(packed) == len(expected) and len(derived) == 1
    # a table change replaces the whole state: the old packings are not
    # held, and the restored table is derived once more and packs afresh
    held = len(old)
    monkeypatch.setattr(transfer, "R2", R2_TABLE)
    transfer.transfer_u(parse_word("PCE"), Rat(3, 41))
    assert len(derived) == 2 and transfer._held[0][0] is R2_TABLE
    ks = transfer._state()[2]
    assert ks[3, 41][1] is not old and len(old) == held
    assert list(ks) == [(3, 41)] and list(ks[3, 41][1]) == [(1, 1, 3)]
    assert sorted(packed[len(expected):]) == sorted((block, radix((1, 1, 1)))
                                                    for _, block, _ in triples)


@pytest.mark.parametrize("k", [Rat(1), Rat(7, 3), Rat(5, 7), Rat(997, 13)])
def test_short_part_prints_as_its_lowest_terms(k):
    # transfer_u hands the short part on as the kernel computed it
    reduced = 0
    for w, _ in toggle_classes(3, 7):
        for x in (w, toggle(w)):
            short = transfer.transfer_u(x, k)[1]
            lowest = lowest_terms(*short)
            assert t_json(*short) == t_json(*lowest)
            reduced += lowest != (tuple(short[0]), short[1])
    assert reduced > 0


def test_charpoly_via_transfer_postcondition_raises(monkeypatch):
    # a long part of full degree n makes the sum non-monic
    monkeypatch.setattr(
        "cospec.transfer.long_cycle_monomial",
        lambda tau, ell, m, k: ((1, 1), tau + 2 * (ell + m)),
    )
    with pytest.raises(CertificateError):
        charpoly_via_transfer(parse_word("PCE"), 1)


def test_route_rejects_k_and_counts_out_of_domain():
    for k in (0, -2):
        with pytest.raises(ParameterError, match="k must be positive"):
            transfer.transfer_u(parse_word("PCE"), k)
    for counts in ((3, 2, 2), (2, 0, 0)):  # more P and C than modules; tau < 3
        with pytest.raises(ParameterError, match="invalid counts"):
            transfer.long_cycle_monomial(*counts, 1)


@pytest.mark.parametrize("k", [1, Rat(7, 3), Rat(2, 5), Rat(10**12, 7)])
def test_long_cycle_monomial_integers_are_the_rational_formula(k):
    k = Rat(k)
    for tau in range(3, 17):
        for ell in range(tau + 1):
            for m in range(tau - ell + 1):
                (c, d), j = transfer.long_cycle_monomial(tau, ell, m, k)
                assert isinstance(c, int) and isinstance(d, int) and j == 2 * (ell + m)
                expected = Rat((-1) ** (tau - 1)) / (2 ** (tau - 1) * (k + 1) ** (ell + m))
                assert Rat(c, d) == expected


@given(words, st.sampled_from([Rat(1), Rat(2)]))
@settings(max_examples=15, deadline=None)
def test_short_part_rotation_reversal_invariant(w, k):
    p = short_part(w, k)
    rotated = parse_word(w.letters[1:] + w.letters[0])
    reversed_ = parse_word(w.letters[::-1])
    assert short_part(rotated, k) == p
    assert short_part(reversed_, k) == p


# ------------------------------------------------------------- full charpoly


def test_charpoly_via_transfer_eee():
    assert charpoly_via_transfer(parse_word("EEE"), 1) == Polynomial(
        (0, Rat(9, 4), -3, 1)
    )


def test_charpoly_via_transfer_known_pair():
    w = parse_word("PPCCPPPC")
    p = charpoly_via_transfer(w, 1)
    assert p == charpoly_exact(assemble_ring(w, 1))
    assert p == charpoly_via_transfer(toggle(w), 1)


@given(words, st.sampled_from([Rat(1), Rat(2), Rat(1, 2)]))
@settings(max_examples=20, deadline=None)
def test_transfer_matches_exact_and_toggle(w, k):
    p = charpoly_via_transfer(w, k)
    assert p == charpoly_exact(assemble_ring(w, k))
    assert p == charpoly_via_transfer(toggle(w), k)


# ------------------------------------------------------------- U conjugation


@pytest.mark.parametrize("k,t", [(Rat(1), Rat(3)), (Rat(5, 2), Rat(-2)), (Rat(7, 3), Rat(3))])
def test_u_conjugation_holds(k, t):
    # pointwise, on the hand-written forms: independent of the certificate's tables
    U = u_matrix(t)
    yp, yc, ye = (y_block_reference(kind, k, t) for kind in "PCE")
    assert mat_mul(U, yp) == mat_mul(yc, U)
    assert mat_mul(U, yc) == mat_mul(yp, U)
    assert mat_mul(U, ye) == mat_mul(ye, U)
    assert det2(U) != 0
