"""Command-line verification workflows.

One compact JSON line goes to stdout (`python -m json.tool` pretty-prints
it), a short human summary to stderr.  `export` is the exception: it
prints its graph as indented JSON, or as DOT or CSV with `--format`.
Exit codes live on the error classes (`cospec.errors`): an error, a usage
error included, prints one `error:` line and exits with its `exit_code`; a
failed check exits as a failed certificate does, and a `scan` that skipped
a pair as a budget.

`verify` and `scan` decide by the routes' exact charpolys alone; only
`spectrum` and `blowup` compute a float spectrum, and so load numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import __version__
from .blowup import (
    blow_up,
    is_simple,
    scale_weights,
    simple_blowup_recipe,
    solve_uniform_multiplicities,
)
from .decomps import DEFAULT_BUDGET, oracle_u
from .errors import (
    BudgetError,
    CertificateError,
    CospecError,
    OutputError,
    ParameterError,
    RecipeError,
)
from .graphs import (
    assemble_ring,
    eigenvalues_numeric,
    export_graph,
    non_isomorphism_witness,
    ring_edge_count,
    ring_embeds,
)
from .linalg import exact_u
from .polynomials import t_json
from .rationals import BACKEND, module_parameter, parse_rat, rat_str
from .transfer import certify_identities, transfer_u
from .words import Word, is_self_toggle, parse_word, toggle, toggle_classes


# largest numeric eigenvalue gap a blowup pair may show and pass
BLOWUP_GAP_TOL = 1e-9


def _report(args, payload: dict, summary: str, *, passed=True, skipped=False) -> int:
    """Print the report headed by the command and version, then its summary; return the code."""
    print(json.dumps({"command": args.command, "version": __version__, **payload}))
    print(summary, file=sys.stderr)
    if not passed:
        return CertificateError.exit_code
    return BudgetError.exit_code if skipped else 0


def _compare(checks: dict, route: str, pairs: list, exact) -> None:
    """Record a route's checks: its polynomials, as (coeffs, den) pairs in
    lowest terms, agree on the two sides, and on G(w) it matches the exact
    route (when that ran)."""
    if len(pairs) == 2:
        checks[f"{route}_equal"] = pairs[0] == pairs[1]
    if exact is not None:
        checks[f"{route}_matches_exact"] = pairs[0] == exact


def _witness(sides: tuple, counts: list, graphs, k):
    """Why G(w) and G(toggle(w)) are not isomorphic: "edge_count" when the
    words' edge counts differ, else the graphs' `non_isomorphism_witness`
    (built here when no route built them)."""
    if counts[0] != counts[1]:
        return "edge_count"
    return non_isomorphism_witness(*(graphs or [assemble_ring(x, k) for x in sides]))


def _verify_pair(w: Word, k, method: str, budget: int, *, trivial: bool,
                 compare_trivial: bool = True) -> dict:
    """Check G(w) against G(toggle(w)) by each route `method` names; trivial = is_self_toggle(w).
    k has passed `module_parameter` in the command, so k <= 0 stops there, before any route.

    The verdict is the routes' exact charpolys alone: equal charpolys are
    equal spectra, multiplicities included, so no float check is made.
    n, the edge counts and the subgraph relation are read from the words;
    the graphs are built only when a route that reads them runs (exact, or
    the oracle), and the WL witness of a pair with equal edge counts builds
    its own when none did.

    With compare_trivial=False a self-toggle class, whose two graphs are
    one graph relabelled, is checked alone: only the cross-route checks
    remain, and a route runs on G(w) once when a check or an output field
    reads it (the exact and transfer routes always; the oracle only beside
    the exact route).
    """
    start = time.perf_counter()
    wt = toggle(w)
    sides = (w,) if trivial and not compare_trivial else (w, wt)
    counts = [ring_edge_count(x) for x in sides]
    exact_runs = method in ("all", "exact")
    # a trivial entry reads the oracle only through oracle_matches_exact
    oracle_runs = method in ("all", "oracle") and (len(sides) == 2 or exact_runs)
    graphs = [assemble_ring(x, k) for x in sides] if exact_runs or oracle_runs else None
    entry = {
        "word": str(w),
        "toggled_word": str(wt),
        "k": rat_str(k),
        "n": w.n,
        "trivial": trivial,
        "edge_counts": counts,
    }
    checks = {}
    exact = None
    if exact_runs:
        exacts = [exact_u(g) for g in graphs]
        _compare(checks, "exact", exacts, None)
        exact = exacts[0]
        entry["charpoly_exact"] = t_json(*exact)
    if method in ("all", "transfer"):
        transfers = [transfer_u(x, k) for x in sides]
        _compare(checks, "transfer", [charpoly for charpoly, _ in transfers], exact)
        entry["short_part"] = t_json(*transfers[0][1])
    if oracle_runs:
        try:
            oracles = [oracle_u(g, budget) for g in graphs]
        except BudgetError as exc:
            if method == "oracle":
                raise
            if len(sides) == 2:
                checks["oracle_equal"] = None
            entry["oracle_skipped"] = str(exc)
        else:
            _compare(checks, "oracle", oracles, exact)
    if len(sides) == 2:
        sparse, dense = sides if counts[0] <= counts[1] else sides[::-1]
        entry["subgraph_sparse_in_dense"] = ring_embeds(sparse, dense, k)
        entry["witness"] = _witness(sides, counts, graphs, k)
    entry["checks"] = checks
    entry["pass"] = all(v for v in checks.values() if v is not None)
    entry["seconds"] = round(time.perf_counter() - start, 6)
    return entry


def cmd_verify(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    k = module_parameter(parse_rat(args.k))
    entry = _verify_pair(w, k, args.method, args.budget, trivial=is_self_toggle(w))
    status = "PASS" if entry["pass"] else "FAIL"
    summary = f"verify {w} vs {entry['toggled_word']} (k={rat_str(k)}): {status}"
    return _report(args, {"backend": BACKEND, "result": entry}, summary, passed=entry["pass"])


def cmd_scan(args: argparse.Namespace) -> int:
    items = [s.strip() for s in args.k.split(",") if s.strip()]
    if not items:
        raise ParameterError(f"--k needs at least one value, got {args.k!r}")
    # one k per value, in first-seen order: "1" and "1/1" are one k
    ks = [module_parameter(k) for k in dict.fromkeys(parse_rat(s) for s in items)]
    entries = []
    failures = skipped = 0
    for w, trivial in toggle_classes(3, args.tau_max):
        for k in ks:
            try:
                entry = _verify_pair(w, k, args.method, args.budget, trivial=trivial,
                                     compare_trivial=False)
            except BudgetError as exc:
                entries.append({"word": str(w), "k": rat_str(k),
                                "trivial": trivial, "skipped": str(exc)})
                skipped += 1
                continue
            entry["edge_delta"] = entry["edge_counts"][-1] - entry["edge_counts"][0]
            entries.append(entry)
            if not entry["pass"]:
                failures += 1
    checked = len(entries) - skipped
    pairs = [e for e in entries if "witness" in e]
    unwitnessed = [f"{e['word']}/{e['toggled_word']} (k={e['k']})"
                   for e in pairs if e["witness"] is None]
    payload = {
        "backend": BACKEND,
        "tau_max": args.tau_max,
        "k": [rat_str(k) for k in ks],
        "entries": entries,
        "summary": {
            "pairs_checked": checked,
            "failures": failures,
            "skipped": skipped,
            "trivial": sum(1 for e in entries if e["trivial"] and "skipped" not in e),
            "witnessed": len(pairs) - len(unwitnessed),
            "unwitnessed": len(unwitnessed),
            "subgraph_hits": sum(1 for e in pairs if e["subgraph_sparse_in_dense"]),
        },
    }
    summary = payload["summary"]
    line = (f"scan tau<={args.tau_max}: {checked} pairs ({summary['trivial']} trivial), "
            f"{failures} failures, {skipped} skipped, {summary['witnessed']} witnessed, "
            f"{len(unwitnessed)} unwitnessed")
    if unwitnessed:
        line += ": " + ", ".join(unwitnessed)
    return _report(args, payload, line, passed=not failures, skipped=bool(skipped))


def _write_or_print(text: str, path: str) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_blowup(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    k = module_parameter(parse_rat(args.k))
    scale = parse_rat(args.scale)
    wt = toggle(w)
    if scale == 1:
        if k.denominator != 1:
            raise RecipeError(f"blowup recipe needs integer k, got {rat_str(k)}")
        b1, b2 = simple_blowup_recipe(w, int(k))
        specs = {"recipe": "unsigned-multiplicity-and-path-split", "multiplicity": int(k)}
    else:
        pair = []
        for word in (w, wt):
            g = scale_weights(assemble_ring(word, k), scale)
            reps = solve_uniform_multiplicities(g)
            if reps is None:
                raise RecipeError(
                    f"no integer multiplicities make the scaled G({word}) simple"
                )
            pair.append(blow_up(g, reps))
        b1, b2 = pair
        specs = {"recipe": "scale-then-blowup", "scale": rat_str(scale)}
    gap = float(abs(eigenvalues_numeric(b1) - eigenvalues_numeric(b2)).max())
    simple = [is_simple(b1), is_simple(b2)]
    ok = all(simple) and gap <= BLOWUP_GAP_TOL
    if args.out:
        for name, g in (("blowup_1", b1), ("blowup_2", b2)):
            _write_or_print(export_graph(g, args.format), f"{args.out}/{name}.{args.format}")
    payload = {
        "word": str(w),
        "toggled_word": str(wt),
        "k": rat_str(k),
        "spec": specs,
        "n": [b1.n, b2.n],
        "simple": simple,
        "eigenvalue_gap": gap,
        "pass": ok,
    }
    if is_self_toggle(w):
        print(f"note: {w} is its own toggle; the blowup pair is identical", file=sys.stderr)
    return _report(args, payload, f"blowup {w}/{wt} (k={rat_str(k)}): {'PASS' if ok else 'FAIL'}",
                   passed=ok)


def cmd_identities(args: argparse.Namespace) -> int:
    # certify_identities raises IdentityCheckError unless all hold
    entries = certify_identities()
    payload = {
        "domain": "k > 0, t not in {0, 1, 2}",
        "identities": entries,
        "pass": True,
    }
    return _report(args, payload,
                   f"identities: {len(entries)} hold as polynomials in (k, v = (t-1)^2): PASS")


def cmd_export(args: argparse.Namespace) -> int:
    g = assemble_ring(parse_word(args.word), parse_rat(args.k))
    _write_or_print(export_graph(g, args.format), args.out)
    print(f"exported {g}", file=sys.stderr)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    k = parse_rat(args.k)
    g = assemble_ring(w, k)
    payload = {
        "word": str(w),
        "k": rat_str(k),
        "n": g.n,
        "eigenvalues": [float(x) for x in eigenvalues_numeric(g)],
    }
    return _report(args, payload, f"spectrum of G({w}), n={g.n}")


def cmd_charpoly(args: argparse.Namespace) -> int:
    w = parse_word(args.word)
    k = module_parameter(parse_rat(args.k))
    # the transfer route reads the word alone
    g = None if args.method == "transfer" else assemble_ring(w, k)
    pairs = {}
    if args.method in ("all", "exact"):
        pairs["exact"] = exact_u(g)
    if args.method in ("all", "transfer"):
        pairs["transfer"] = transfer_u(w, k)[0]
    if args.method in ("all", "oracle"):
        pairs["oracle"] = oracle_u(g, args.budget)
    vals = list(pairs.values())
    agree = all(vals[0] == p for p in vals[1:])
    payload = {
        "backend": BACKEND,
        "word": str(w),
        "k": rat_str(k),
        "n": w.n,
        "coefficients": {name: t_json(*pair) for name, pair in pairs.items()},
        "methods_agree": agree,
    }
    return _report(args, payload,
                   f"charpoly of G({w}) by {sorted(pairs)}: {'agree' if agree else 'DISAGREE'}",
                   passed=agree)


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors for `main` to report; its subparsers share the class."""

    def error(self, message):
        # an unknown argument is quoted raw, and may hold a line break
        raise CospecError(message.replace("\n", "\\n"))


@functools.cache  # built on first use; parsing leaves it unchanged for the next call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cospec",
        allow_abbrev=False,  # an abbreviated option is a usage error, as in every subparser
        description="Build ring-of-modules graphs and verify their cospectrality.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help, *, word=False, k=False, fmt=False, routes=False, out=None):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        if word:
            p.add_argument("--word", required=True, help="module word over P/C/E")
        if k:
            p.add_argument("--k", default="1", help='module parameter as "p/q"')
        if fmt:
            p.add_argument("--format", default="json", choices=["json", "dot", "csv"])
        if routes:
            p.add_argument(
                "--method", default="all", choices=["all", "exact", "transfer", "oracle"]
            )
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="most decompositions the oracle may enumerate")
        if out:
            p.add_argument("--out", default="", help=out)
        return p

    add("verify", cmd_verify, "check one toggled pair by all methods", word=True, k=True,
        routes=True)
    scan = add("scan", cmd_scan, "verify every cyclic word class up to a length", routes=True)
    scan.add_argument("--tau-max", type=int, required=True)
    scan.add_argument("--k", default="1/1,2/1,1/2", help="comma-separated k values")
    blow = add("blowup", cmd_blowup, "emit a simple cospectral pair of blowups", word=True,
               k=True, fmt=True, out="directory for the two blowup files")
    blow.add_argument("--scale", default="1", help="pre-scale edge weights")
    add("identities", cmd_identities,
        "prove the transfer-matrix identities for all k > 0, t not in {0, 1, 2}")
    add("export", cmd_export, "serialize one ring graph", word=True, k=True, fmt=True,
        out="output file (default: stdout)")
    add("spectrum", cmd_spectrum, "numeric normalized-Laplacian eigenvalues", word=True, k=True)
    add("charpoly", cmd_charpoly, "exact characteristic polynomial", word=True, k=True,
        routes=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "scan" and not (3 <= args.tau_max <= 12):
            raise ParameterError(f"--tau-max must be in [3, 12], got {args.tau_max}")
        budget = getattr(args, "budget", 1)
        if budget < 1:
            raise ParameterError(f"--budget must be at least 1, got {budget}")
        return args.run(args)
    except SystemExit:  # --help and --version: usage errors raise CospecError
        return 0
    except (CospecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", CospecError.exit_code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
