import contextlib
import io
import json
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from cospec import __version__, cli, errors, graphs
from cospec.cli import main
from cospec.graphs import assemble_ring
from cospec.rationals import Rat, rat_str
from cospec.words import canonical_form, canonical_words, is_self_toggle, parse_word, toggle
from polynomial_reference import charpoly_exact


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_verify_pass(capsys):
    code, payload, err = run(
        capsys, "verify", "--word", "PPCCPPPC", "--k", "1", "--method", "transfer"
    )
    assert code == 0
    result = payload["result"]
    assert result["toggled_word"] == "CCPPCCCP"
    assert result["edge_counts"] == [27, 29]
    assert result["pass"] is True
    assert "PASS" in err


def test_verify_self_toggled(capsys):
    code, payload, _ = run(capsys, "verify", "--word", "EEE", "--k", "1")
    assert code == 0
    assert payload["result"]["checks"]["oracle_equal"] is True


def test_verify_usage_error_short_word(capsys):
    code, _, err = run(capsys, "verify", "--word", "PC", "--k", "1")
    assert code == 2
    assert "length" in err


def test_verify_bad_k(capsys):
    code, *_ = run(capsys, "verify", "--word", "PPP", "--k", "0")
    assert code == 2


@pytest.mark.parametrize("method", ["transfer", "exact", "oracle", "all"])
@pytest.mark.parametrize("argv", [["scan", "--tau-max", "3", "--k", "0"],
                                  ["scan", "--tau-max", "4", "--k", "1,-1/2"],
                                  ["verify", "--word", "PPE", "--k", "0"],
                                  ["charpoly", "--word", "PPE", "--k", "0"]])
def test_k_at_most_0_is_rejected_before_any_route(capsys, monkeypatch, argv, method):
    # one message for every method, though the transfer route builds no graph
    monkeypatch.setattr(cli, "_verify_pair", lambda *a, **kw: pytest.fail("a route ran"))
    assert main(argv + ["--method", method]) == 2
    captured = capsys.readouterr()
    bad = argv[-1].split(",")[-1]
    assert captured.out == ""
    assert captured.err == f"error: module parameter k must be positive, got {bad}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--word", "PCE", "--k", "1/0"],
        ["blowup", "--word", "PCPC", "--k", "2", "--out", "{missing}"],
        ["verify", "--word", "PCE", "--k", ""],
        ["charpoly", "--word", "PCE", "--k", " "],
        ["blowup", "--word", "PCE", "--k", ""],
        ["export", "--word", "PCE", "--k", " "],
        ["spectrum", "--word", "PCE", "--k", ""],
        ["scan", "--tau-max", "3", "--k", ","],
        ["verify", "--word", ""],
        ["verify", "--word", "PCE", "--k", "1,2", "--method", "exact"],
        ["charpoly", "--word", "PCE", "--k", "1,2"],
        ["blowup", "--word", "PCE", "--k", "1,2"],
        ["export", "--word", "PCE", "--k", "1,2"],
        ["spectrum", "--word", "PCE", "--k", "1,2"],
        ["charpoly", "--word", "PCE", "--method", "oracle", "--budget", "-1"],
        ["verify", "--word", "PCE", "--budget", "0"],
        # usage errors, which argparse words differently on each Python
        [],
        ["verify"],
        ["export", "--word", "PCE", "--format", "xml"],
        ["verify", "--word", "PCE", "--budget", "x"],
        ["verify", "--word", "PCE", "--k", "-3/2"],
        ["verify", "--word", "PCE", "--bogus", "1"],
        ["verify", "--word", "PCE", "a\nb"],
        ["blowup", "--word", "EEEPCC", "--k", "2", "--tol", "1e-9"],
        # no option may be abbreviated
        ["verify", "--wo", "PCE", "--meth", "transfer"],
        ["scan", "--tau", "8"],
    ],
    ids=["k-zero-denominator", "out-missing-dir", "verify-k-empty",
         "charpoly-k-blank", "blowup-k-empty", "export-k-blank", "spectrum-k-empty",
         "scan-k-comma", "word-empty",
         "verify-k-list", "charpoly-k-list", "blowup-k-list", "export-k-list",
         "spectrum-k-list", "budget-negative", "budget-zero",
         "no-command", "word-missing", "format-xml", "budget-not-int", "k-read-as-option",
         "unknown-option", "unknown-argument-with-line-break", "blowup-tol",
         "verify-abbreviated", "scan-abbreviated"],
)
def test_domain_errors_exit_2_with_one_line(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--word", "PCE", "--out", "x"],
        ["export", "--word", "PCE", "--tol", "5", "--budget", "3"],
        ["identities", "--budget", "3"],
        ["identities", "--k", "1"],
        ["identities", "--t", "3"],
        ["charpoly", "--word", "PCE", "--tol", "1"],
        ["verify", "--word", "PCE", "--tol", "1e-9"],
        ["scan", "--tau-max", "3", "--tol", "1e-9"],
    ],
    ids=["spectrum-out", "export-tol-budget", "identities-budget", "identities-k", "identities-t",
         "charpoly-tol", "verify-tol", "scan-tol"],
)
def test_options_a_command_does_not_read_exit_2(capsys, argv):
    code, payload, err = run(capsys, *argv)
    assert code == 2 and payload is None
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"], ["--version"]],
                         ids=["help", "scan-help", "version"])
def test_help_and_version_exit_0_on_stdout(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv == ["--version"]:
        assert captured.out == f"{__version__}\n"
    else:
        assert captured.out.startswith(" ".join(["usage: cospec"] + argv[:-1]))


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.CospecError)]
EXIT_CODES = {errors.BudgetError: 3, errors.CertificateError: 1, errors.IdentityCheckError: 1}


@pytest.mark.parametrize("error", ERROR_CLASSES + [ValueError], ids=lambda c: c.__name__)
def test_each_error_raised_in_a_command_exits_with_its_code(capsys, monkeypatch, error):
    def fail(g):
        raise error("raised inside the command")

    monkeypatch.setattr(cli, "exact_u", fail)
    code = main(["charpoly", "--word", "PCE", "--method", "exact"])
    captured = capsys.readouterr()
    assert code == EXIT_CODES.get(error, 2)
    assert captured.out == ""
    assert captured.err == "error: raised inside the command\n"


def test_tau_max_is_checked_before_budget(capsys):
    code = main(["scan", "--tau-max", "13", "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --tau-max must be in [3, 12], got 13\n"


def test_verify_oracle_budget(capsys):
    code, _, err = run(
        capsys, "verify", "--word", "CCCC", "--k", "1", "--method", "oracle",
        "--budget", "10",
    )
    assert code == 3


def test_charpoly_oracle_budget_below_the_cycle_count_exits_3(capsys):
    # ring CCCC has 20 cycles, so budget 19 runs out while they are found
    code, payload, err = run(capsys, "charpoly", "--word", "CCCC", "--method", "oracle",
                             "--budget", "19")
    assert code == 3 and payload is None
    assert err == "error: more than 19 decompositions\n"


def test_scan_tau3(capsys):
    code, payload, _ = run(capsys, "scan", "--tau-max", "3", "--k", "1", "--method", "exact")
    assert code == 0
    # 10 classes: EEE and CEP toggle to themselves, the other 8 form 4 pairs
    assert payload["summary"]["pairs_checked"] == 6
    assert payload["summary"]["trivial"] == 2
    assert payload["summary"]["failures"] == 0
    # words with ell == m give zero edge delta
    for entry in payload["entries"]:
        w = entry["word"]
        if w.count("P") == w.count("C"):
            assert entry["edge_delta"] == 0


def test_scan_runs_each_k_value_once(capsys):
    code, payload, _ = run(capsys, "scan", "--tau-max", "3", "--k", "2,1,1/1,4/2",
                           "--method", "exact")
    assert code == 0
    assert payload["k"] == ["2/1", "1/1"]
    assert payload["summary"]["pairs_checked"] == 12 and len(payload["entries"]) == 12


def test_scan_with_skipped_pairs_exits_3(capsys):
    code, payload, err = run(
        capsys, "scan", "--tau-max", "3", "--k", "1", "--method", "oracle", "--budget", "5"
    )
    assert code == 3
    # the 4 pairs are skipped; the 2 trivial entries never run the oracle
    assert payload["summary"]["skipped"] == 4 and payload["summary"]["failures"] == 0
    assert len(payload["entries"]) == 6
    assert "4 skipped" in err


@pytest.mark.parametrize("method, calls", [("oracle", 8), ("all", 10), ("exact", 0)])
def test_scan_runs_the_oracle_on_a_trivial_entry_only_when_a_check_reads_it(
        capsys, monkeypatch, method, calls):
    seen = []
    oracle = cli.oracle_u
    monkeypatch.setattr(cli, "oracle_u",
                        lambda g, budget: seen.append(g.word) or oracle(g, budget))
    code, payload, _ = run(capsys, "scan", "--tau-max", "3", "--k", "1", "--method", method)
    assert code == 0
    # 4 pairs run it on both sides; CEP and EEE only for oracle_matches_exact
    assert len(seen) == calls
    for e in payload["entries"]:
        if e["trivial"]:
            assert e["checks"] == ({"transfer_matches_exact": True, "oracle_matches_exact": True}
                                   if method == "all" else {})


def test_scan_one_entry_per_unordered_pair_and_k(capsys):
    code, payload, err = run(
        capsys, "scan", "--tau-max", "5", "--k", "1,7/3", "--method", "transfer"
    )
    assert code == 0
    entries = payload["entries"]
    # 70 classes: 12 toggle to themselves, the other 58 form 29 pairs
    assert len(entries) == 2 * (12 + 29)
    for k in ("1/1", "7/3"):
        covered = []
        for e in entries:
            if e["k"] == k:
                w = parse_word(e["word"])
                assert e["trivial"] == is_self_toggle(w)
                covered += {canonical_form(w).letters, canonical_form(toggle(w)).letters}
        assert sorted(covered) == sorted(c.letters for c in canonical_words(3, 5))
    summary = payload["summary"]
    assert (summary["pairs_checked"], summary["trivial"], summary["witnessed"],
            summary["unwitnessed"], summary["failures"]) == (82, 24, 58, 0, 0)
    witnesses = [e["witness"] for e in entries if not e["trivial"]]
    assert (witnesses.count("edge_count"), witnesses.count("wl")) == (56, 2)
    assert "24 trivial" in err and "58 witnessed, 0 unwitnessed" in err


def test_transfer_scan_builds_only_the_graphs_wl_reads(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "assemble_ring", lambda w, k: built.append((w, k))
                        or assemble_ring(w, k))
    code, payload, _ = run(capsys, "scan", "--tau-max", "5", "--k", "1,7/3", "--method", "transfer")
    assert code == 0
    wl = [(e["word"], e["toggled_word"], e["k"]) for e in payload["entries"]
          if e.get("witness") == "wl"]
    assert len(wl) == 2
    assert sorted((str(w), rat_str(k)) for w, k in built) == sorted(
        (x, k) for w, wt, k in wl for x in (w, wt))
    # the entries hold what the graphs hold
    for e in payload["entries"]:
        graphs = [assemble_ring(parse_word(x), Rat(e["k"])) for x in (e["word"], e["toggled_word"])]
        assert e["n"] == graphs[0].n
        assert e["edge_counts"] == [g.edge_count for g in graphs[:1 if e["trivial"] else 2]]


def test_oracle_scan_builds_no_graph_for_a_self_toggle_entry(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "assemble_ring", lambda w, k: built.append(str(w))
                        or assemble_ring(w, k))
    code, payload, _ = run(capsys, "scan", "--tau-max", "6", "--k", "1", "--method", "oracle")
    assert code == 0
    # the oracle runs on both sides of a pair, and on no self-toggle entry
    pairs = [e for e in payload["entries"] if not e["trivial"]]
    assert all(e["checks"] == {} for e in payload["entries"] if e["trivial"])
    assert len(built) == 2 * len(pairs) == 138
    assert sorted(built) == sorted(x for e in pairs for x in (e["word"], e["toggled_word"]))


def test_scan_unwitnessed_pair_is_counted_and_named(capsys, monkeypatch):
    # the witness of a pair: the words' edge counts, else WL on the graphs
    monkeypatch.setattr("cospec.cli._witness", lambda sides, counts, graphs, k: None)
    code, payload, err = run(capsys, "scan", "--tau-max", "3", "--k", "1", "--method", "exact")
    assert code == 0
    assert (payload["summary"]["witnessed"], payload["summary"]["unwitnessed"]) == (0, 4)
    assert "4 unwitnessed: PPP/CCC (k=1/1), " in err


def test_scan_trivial_entry_checks_one_graph(capsys):
    code, payload, _ = run(capsys, "scan", "--tau-max", "3", "--k", "2", "--method", "all")
    assert code == 0
    trivial = [e for e in payload["entries"] if e["trivial"]]
    assert [e["word"] for e in trivial] == ["CEP", "EEE"]
    for e in trivial:
        g = assemble_ring(parse_word(e["word"]), 2)
        assert e["edge_counts"] == [g.edge_count] and e["edge_delta"] == 0
        assert e["checks"] == {"transfer_matches_exact": True, "oracle_matches_exact": True}
        assert e["pass"] is True
        assert e["charpoly_exact"] == charpoly_exact(g).to_json()
        assert "short_part" in e
        assert not {"subgraph_sparse_in_dense", "witness"} & set(e)
    assert payload["summary"]["subgraph_hits"] == sum(
        1 for e in payload["entries"] if e.get("subgraph_sparse_in_dense"))


def test_scan_pair_entry_equals_verify(capsys):
    code, payload, _ = run(capsys, "scan", "--tau-max", "4", "--k", "7/3", "--method", "all")
    assert code == 0
    pairs = [e for e in payload["entries"] if not e["trivial"]]
    assert len(pairs) == 12
    for e in pairs:
        code, verified, _ = run(capsys, "verify", "--word", e["word"], "--k", "7/3")
        assert code == 0
        result = verified["result"]
        for key in ("toggled_word", "edge_counts", "charpoly_exact", "short_part",
                    "checks", "witness", "subgraph_sparse_in_dense", "pass"):
            assert e[key] == result[key], (e["word"], key)


def test_verify_self_toggle_runs_every_check(capsys):
    code, payload, _ = run(capsys, "verify", "--word", "PCEE", "--k", "1", "--method", "exact")
    assert code == 0
    result = payload["result"]
    assert result["trivial"] is True and result["witness"] is None
    assert result["checks"] == {"exact_equal": True}


ROUTE_CHECKS = {
    "exact": {"exact_equal"},
    "transfer": {"transfer_equal"},
    "oracle": {"oracle_equal"},
    "all": {"exact_equal", "transfer_equal", "transfer_matches_exact", "oracle_equal",
            "oracle_matches_exact"},
}


@pytest.mark.parametrize("method", sorted(ROUTE_CHECKS))
def test_checks_are_the_routes_exact_comparisons_alone(capsys, method):
    # no float check rides along: a pair passes on its exact charpolys
    checks = ROUTE_CHECKS[method]
    for word in ("PCE", "PCEE"):
        code, payload, _ = run(capsys, "verify", "--word", word, "--k", "7/3", "--method", method)
        result = payload["result"]
        assert code == 0 and set(result["checks"]) == checks and "eigenvalue_gap" not in result
    code, payload, _ = run(capsys, "scan", "--tau-max", "4", "--k", "7/3", "--method", method)
    assert code == 0
    for e in payload["entries"]:
        # a trivial entry keeps only the cross-route checks
        expected = {c for c in checks if c.endswith("_matches_exact")} if e["trivial"] else checks
        assert set(e["checks"]) == expected, e["word"]
        assert "eigenvalue_gap" not in e


def test_scan_with_oracle_skipped_inside_pairs_exits_0(capsys):
    # under --method all the exact and transfer checks still ran on every pair
    code, payload, _ = run(
        capsys, "scan", "--tau-max", "3", "--k", "1", "--method", "all", "--budget", "5"
    )
    assert code == 0
    assert payload["summary"]["skipped"] == 0
    assert any("oracle_skipped" in entry for entry in payload["entries"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--word", "PCE", "--method", "exact"],
        ["scan", "--tau-max", "3", "--k", "1", "--method", "exact"],
        ["charpoly", "--word", "PCE", "--method", "exact"],
    ],
    ids=["verify", "scan", "charpoly"],
)
def test_payload_names_rational_backend(capsys, argv):
    code, payload, _ = run(capsys, *argv)
    assert code == 0
    assert payload["backend"] == f"{Rat.__module__}.{Rat.__name__}"


def test_scan_bad_tau(capsys):
    code, *_ = run(capsys, "scan", "--tau-max", "2")
    assert code == 2


def test_identities_default_points(capsys):
    code, payload, err = run(capsys, "identities")
    assert code == 0 and "PASS" in err
    assert payload["pass"] is True and payload["domain"] == "k > 0, t not in {0, 1, 2}"
    assert {e["identity"]: (e["degree_k"], e["degree_v"], e["holds"])
            for e in payload["identities"]} == {
        "Q = R S R^-1": (0, 0, True),
        "S rows 2-3 = 0": (0, 0, True),
        "U Y_P = Y_C U": (2, 3, True),
        "U Y_C = Y_P U": (2, 3, True),
        "U Y_E = Y_E U": (2, 3, True),
        "det U = -144 v (v - 1)": (0, 2, True),
    }


def test_blowup_json_output(capsys, tmp_path):
    code, payload, _ = run(
        capsys, "blowup", "--word", "EEEPCC", "--k", "2",
        "--format", "json", "--out", str(tmp_path),
    )
    assert code == 0
    assert payload["pass"] is True and payload["simple"] == [True, True]
    dumped = json.loads((tmp_path / "blowup_1.json").read_text())
    assert dumped["n"] == payload["n"][0]


def test_blowup_scaled_ecc(capsys):
    code, payload, _ = run(capsys, "blowup", "--word", "ECC", "--k", "1", "--scale", "2")
    assert code == 0 and payload["pass"] is True


def test_blowup_identity_warns(capsys):
    code, payload, err = run(capsys, "blowup", "--word", "EEE", "--k", "1")
    assert code == 0
    assert "own toggle" in err


def test_blowup_warns_on_a_reflected_rotation(capsys):
    # PCEE toggles to CPEE, a reflected rotation of it
    code, payload, err = run(capsys, "blowup", "--word", "PCEE", "--k", "1")
    assert code == 0
    assert "note: PCEE is its own toggle" in err


def test_blowup_obstruction(capsys):
    code, _, err = run(capsys, "blowup", "--word", "ECC", "--k", "1")
    assert code == 2
    assert "lone edge" in err or "parallel paths" in err


@pytest.mark.parametrize("argv, message", [
    (["--word", "EEE", "--k", "3/2"], "blowup recipe needs integer k, got 3/2"),
    (["--word", "PPP", "--k", "1", "--scale", "3"],
     "no integer multiplicities make the scaled G(PPP) simple"),
])
def test_blowup_recipe_errors_exit_2_with_one_line(capsys, argv, message):
    code, payload, err = run(capsys, "blowup", *argv)
    assert code == 2 and payload is None
    assert err == f"error: {message}\n"


def test_blowup_too_large_exits_2_before_building(capsys):
    # PCC at k = 100000 would blow up into about 2 * 10^10 unit edges
    start = time.perf_counter()
    code, payload, err = run(capsys, "blowup", "--word", "PCC", "--k", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2 and payload is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "edges" in err


def test_blowup_large_scale_exits_2_at_once(capsys):
    # the multiplicity search tries only the divisors of vertex 0's weights,
    # not every r0 up to the scale
    start = time.perf_counter()
    code, payload, err = run(capsys, "blowup", "--word", "ECC", "--k", "1",
                             "--scale", "10000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and payload is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "multiplicities" in err


def test_blowup_huge_scale_exits_2_before_the_search(capsys):
    # the edge count of any unit-weight blowup is checked before the
    # divisor search, which would take seconds at this scale
    start = time.perf_counter()
    code, payload, err = run(capsys, "blowup", "--word", "ECC", "--k", "1",
                             "--scale", "10000000000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and payload is None
    assert err.startswith("error: ") and err.count("\n") == 1 and "edges" in err


def test_export_csv(capsys):
    # the weights as printed, at an integer and at a fractional k
    for word, k, lines in [
        ("EEE", "1", ["0,1,2/1", "0,2,2/1", "1,2,2/1"]),
        ("PCE", "7/3", ["0,1,7/3", "0,3,1/1", "0,6,10/3", "2,3,7/3", "3,4,7/3", "3,6,1/1",
                        "4,5,49/9", "5,6,7/3"]),
    ]:
        code = main(["export", "--word", word, "--k", k, "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == lines


def mutate_c_ab_weight(monkeypatch):
    """C's a-b weight k^2 becomes k in the gadget table, which the exact
    route and the oracle read through the ring and the transfer route does not."""
    monkeypatch.setitem(graphs.GADGETS, "C", tuple(
        (x, y, (0, 1, 0) if {x, y} == {"a", "b"} else coeffs)
        for x, y, coeffs in graphs.GADGETS["C"]))


def test_gadget_table_mutation_fails_only_the_transfer_comparison(capsys, monkeypatch):
    mutate_c_ab_weight(monkeypatch)
    code, payload, err = run(capsys, "verify", "--word", "PCE", "--k", "2")
    assert code == 1 and "FAIL" in err
    checks = payload["result"]["checks"]
    assert checks["transfer_matches_exact"] is False
    assert checks["oracle_matches_exact"] is True and checks["exact_equal"] is True


@pytest.mark.parametrize("method, code, failures",
                         [("transfer", 0, 0), ("exact", 1, 69), ("oracle", 1, 69), ("all", 1, 89)])
def test_gadget_table_mutation_is_caught_by_the_routes_that_read_the_ring(
        capsys, monkeypatch, method, code, failures):
    # the transfer route reads its own table, not the ring, so alone it
    # proves the pairs from that table; the other routes see the mutation
    mutate_c_ab_weight(monkeypatch)
    got, payload, _ = run(capsys, "scan", "--tau-max", "6", "--k", "2", "--method", method)
    assert (got, payload["summary"]["failures"]) == (code, failures)


def test_gadget_table_mutation_after_a_passing_run_at_the_same_k_takes_effect(capsys, monkeypatch):
    # the evaluated gadget rows are kept per row value and k, not per (kind, k):
    # a row patched after a run at k = 2 must reach the next ring at k = 2
    # (PPC, not PCE: the mutated PCE pair stays cospectral)
    argv = ("verify", "--word", "PPC", "--k", "2", "--method", "exact")
    code, payload, _ = run(capsys, *argv)
    assert code == 0 and payload["result"]["checks"]["exact_equal"] is True
    mutate_c_ab_weight(monkeypatch)
    code, payload, _ = run(capsys, *argv)
    assert code == 1 and payload["result"]["checks"]["exact_equal"] is False


def test_blowup_recipe_with_a_non_unit_weight_left_exits_2(capsys, monkeypatch):
    # with C's a-b weight k, not k^2, the blown-up a-b edges of each C weigh
    # 2 / (2 * 2) = 1/2 at k = 2
    mutate_c_ab_weight(monkeypatch)
    code, payload, err = run(capsys, "blowup", "--word", "PCC", "--k", "2")
    assert code == 2 and payload is None
    assert err == "error: blowup of PCC at k=2 left non-unit weights\n"


def test_gadget_table_mutation_is_invisible_at_k_1(capsys, monkeypatch):
    # k^2 = k at k = 1, so the mutated table builds the same rings
    mutate_c_ab_weight(monkeypatch)
    code, payload, _ = run(capsys, "scan", "--tau-max", "4", "--k", "1", "--method", "all")
    assert code == 0 and payload["summary"]["failures"] == 0


def test_spectrum(capsys):
    code, payload, _ = run(capsys, "spectrum", "--word", "EEE", "--k", "1")
    assert code == 0
    assert payload["eigenvalues"] == pytest.approx([0, 1.5, 1.5], abs=1e-12)


@pytest.mark.parametrize("method, builds", [("transfer", 0), ("exact", 1), ("oracle", 1),
                                             ("all", 1)])
def test_charpoly_builds_the_graph_only_for_the_routes_that_read_it(
        capsys, monkeypatch, method, builds):
    argv = ["charpoly", "--word", "PCEP", "--k", "3/5"]
    _, every, _ = run(capsys, *argv)
    calls = []
    build = cli.assemble_ring
    monkeypatch.setattr(cli, "assemble_ring", lambda w, k: calls.append(w) or build(w, k))
    code, payload, _ = run(capsys, *argv, "--method", method)
    assert code == 0 and len(calls) == builds
    assert payload["n"] == every["n"] == assemble_ring(parse_word("PCEP"), Rat(3, 5)).n
    assert all(payload["coefficients"][m] == every["coefficients"][m]
               for m in payload["coefficients"])


def test_charpoly_methods_agree(capsys):
    code, payload, _ = run(capsys, "charpoly", "--word", "PCE", "--k", "2")
    assert code == 0
    assert payload["methods_agree"] is True
    assert set(payload["coefficients"]) == {"exact", "transfer", "oracle"}
    # constant term first; p(0) = 0 for connected ring graphs
    assert payload["coefficients"]["exact"][0] == "0/1"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--word", "PCE", "--k", "2"],
        ["scan", "--tau-max", "3", "--k", "1,7/3"],
        ["charpoly", "--word", "PCEP", "--k", "3/5"],
        ["identities"],
        ["spectrum", "--word", "EEE"],
        ["blowup", "--word", "EEEPCC", "--k", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_one_json_line_of_the_payload(capsys, monkeypatch, argv):
    emitted = []
    report = cli._report

    def spy(args, payload, summary, **kw):
        emitted.append(payload)
        return report(args, payload, summary, **kw)

    monkeypatch.setattr(cli, "_report", spy)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == {"command": argv[0], "version": __version__, **emitted[0]}


def _without_timings(value):
    """A payload with its wall-clock `seconds` fields dropped."""
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _outcome(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = captured.out
    if code in (0, 1) and argv[-1] != "--help":
        out = _without_timings(json.loads(out))
    return code, out, captured.err


def test_cached_parser_is_reused_without_leaking_values(capsys):
    assert cli.build_parser() is cli.build_parser()
    sequence = [
        ["scan", "--tau-max", "3", "--k", "2/3", "--method", "transfer"],
        ["verify", "--word", "PCE", "--method", "bogus"],
        ["verify", "--help"],
        ["verify", "--word", "PCE"],
    ]
    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(_outcome(capsys, argv))
    cli.build_parser.cache_clear()
    parser = cli.build_parser()
    in_turn = [_outcome(capsys, argv) for argv in sequence]
    assert cli.build_parser() is parser
    assert in_turn == alone
    assert [code for code, *_ in in_turn] == [0, 2, 0, 0]
    # the last call ran on its own defaults, not the scan's --k and --method
    verify = in_turn[-1][1]["result"]
    assert verify["k"] == "1/1"
    assert {"exact_equal", "transfer_equal", "oracle_equal"} <= set(verify["checks"])


def test_scans_in_one_process_reuse_the_class_tables_unchanged(capsys, monkeypatch):
    argv = ["scan", "--tau-max", "5", "--k", "7/3", "--method", "all"]
    first = _outcome(capsys, argv)
    assert first[0] == 0
    assert _outcome(capsys, argv) == first
    # the held tables list words only, so a later gadget mutation still reaches the rings
    mutate_c_ab_weight(monkeypatch)
    code, payload, _ = run(capsys, "scan", "--tau-max", "6", "--k", "2", "--method", "exact")
    assert (code, payload["summary"]["failures"]) == (1, 69)


# (usual values, malformed or out-of-domain values) for each option
OPTION_VALUES = {
    "--word": (st.text(alphabet="PCE", min_size=3, max_size=5),
               st.text(alphabet="PCEX", max_size=5)),
    "--k": (st.sampled_from(["1", "2", "1/2", "7/3", "1,2"]),
            st.sampled_from(["0", "-1", "1/0", "", ",", "x"])),
    "--method": (st.sampled_from(["all", "exact", "transfer", "oracle"]), st.just("bogus")),
    "--format": (st.sampled_from(["json", "dot", "csv"]), st.just("xml")),
    "--budget": (st.sampled_from(["10", "100000"]), st.sampled_from(["0", "-1", "x"])),
    "--tol": (st.sampled_from(["1e-9", "0"]), st.sampled_from(["nan", "-1", "inf", "x"])),
    "--scale": (st.sampled_from(["1", "2", "1/2"]), st.sampled_from(["0", "", "x"])),
    "--tau-max": (st.just("3"), st.sampled_from(["2", "13", "x"])),
    "--out": (st.sampled_from(["{dir}", "{dir}/g.out"]), st.just("{dir}/missing/g.out")),
}
COMMAND_OPTIONS = {
    "verify": ["--word", "--k", "--method", "--budget"],
    "scan": ["--tau-max", "--k", "--method", "--budget"],
    "blowup": ["--word", "--k", "--format", "--out", "--scale"],
    "identities": [],
    "export": ["--word", "--k", "--format", "--out"],
    "spectrum": ["--word", "--k"],
    "charpoly": ["--word", "--k", "--method", "--budget"],
}


@st.composite
def argvs(draw):
    # words stay at tau <= 5 and scans at tau <= 3: verify --method all
    # runs the decomposition oracle, exponential in n
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS) + ["bogus"]))
    own = COMMAND_OPTIONS.get(command) or sorted(OPTION_VALUES)
    # mostly the command's own options, sometimes any option
    pool = draw(st.sampled_from([own, own, sorted(OPTION_VALUES)]))
    argv = [command]
    for option in draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)):
        usual, odd = OPTION_VALUES[option]
        argv += [option, draw(odd if draw(st.integers(0, 7)) == 0 else usual)]
    return argv


@given(argvs())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{dir}", tmp) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:  # usage errors too: one error line and nothing else
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
