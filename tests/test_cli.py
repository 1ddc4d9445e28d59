import json

import pytest

from cospec.cli import main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--word", "PCE", "--k", "1/0"],
        ["verify", "--word", "PCE", "--k", "1", "--tol", "nan", "--method", "exact"],
        ["blowup", "--word", "PCPC", "--k", "2", "--out", "{missing}"],
    ],
    ids=["k-zero-denominator", "tol-nan", "out-missing-dir"],
)
def test_domain_errors_exit_2_with_one_line(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_oracle_budget(capsys):
    code, _, err = run(
        capsys, "verify", "--word", "CCCC", "--k", "1", "--method", "oracle",
        "--budget", "10",
    )
    assert code == 3


def test_scan_tau3(capsys):
    code, payload, _ = run(capsys, "scan", "--tau-max", "3", "--k", "1", "--method", "exact")
    assert code == 0
    assert payload["summary"]["pairs_checked"] == 10
    assert payload["summary"]["failures"] == 0
    # words with ell == m give zero edge delta
    for entry in payload["entries"]:
        w = entry["word"]
        if w.count("P") == w.count("C"):
            assert entry["edge_delta"] == 0


def test_scan_bad_tau(capsys):
    code, *_ = run(capsys, "scan", "--tau-max", "2")
    assert code == 2


def test_identities_default_points(capsys):
    code, payload, _ = run(capsys, "identities", "--k", "1,7/3", "--t", "3,-1")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["results"]) == 4


def test_identities_pole(capsys):
    code, _, err = run(capsys, "identities", "--k", "1", "--t", "1")
    assert code == 2
    assert "excluded" in err


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


def test_blowup_obstruction(capsys):
    code, _, err = run(capsys, "blowup", "--word", "ECC", "--k", "1")
    assert code == 2
    assert "lone edge" in err or "parallel paths" in err


def test_export_csv(capsys):
    code = main(["export", "--word", "EEE", "--k", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["0,1,2/1", "0,2,2/1", "1,2,2/1"]


def test_spectrum(capsys):
    code, payload, _ = run(capsys, "spectrum", "--word", "EEE", "--k", "1")
    assert code == 0
    assert payload["eigenvalues"] == pytest.approx([0, 1.5, 1.5], abs=1e-12)


def test_charpoly_methods_agree(capsys):
    code, payload, _ = run(capsys, "charpoly", "--word", "PCE", "--k", "2")
    assert code == 0
    assert payload["methods_agree"] is True
    assert set(payload["coefficients"]) == {"exact", "transfer", "oracle"}
    # constant term first; p(0) = 0 for connected ring graphs
    assert payload["coefficients"]["exact"][0] == "0/1"
