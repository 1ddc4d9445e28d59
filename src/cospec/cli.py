"""Command-line verification workflows.

One compact JSON line goes to stdout (`python -m json.tool` pretty-prints
it), a short human summary to stderr.  `export` is the exception: it
prints its graph as indented JSON, or as DOT or CSV with `--format`.
Exit codes live on the error classes (`cospec.errors`): an error, a usage
error included, prints one `error:` line and exits with its `exit_code`; a
failed check exits as a failed certificate does, and a `scan` that skipped
a pair as a budget.

`verify` and `scan` decide by the routes' exact charpolys alone, and read
what tells a pair's two rings apart (edge counts, witness, subgraph
relation) from the words, so the transfer route alone builds no graph;
only `spectrum` and `blowup` compute a float spectrum, and so load numpy.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import namedtuple
from types import SimpleNamespace

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
from .graphs import assemble_ring, eigenvalues_numeric, export_graph, ring_edge_count, ring_embeds
from .linalg import exact_u
from .polynomials import t_json
from .rationals import BACKEND, module_parameter, module_parameters, parse_rat, rat_str
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


def _verify_pair(w: Word, k, method: str, budget: int, *, trivial: bool,
                 compare_trivial: bool = True) -> dict:
    """Check G(w) against G(toggle(w)) by each route `method` names; trivial = is_self_toggle(w).
    k has passed `module_parameter` as the `--k` reader of `COMMANDS`, so k <= 0 stops there.

    The verdict is the routes' exact charpolys alone: equal charpolys are
    equal spectra, multiplicities included, so no float check is made.
    n, the edge counts, the subgraph relation and the witness are read from
    the words; the graphs are built only when a route that reads them runs
    (exact, or the oracle), so the transfer route alone builds none.

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
    charpolys = {}  # each route's charpolys, side by side; None for a skipped oracle
    if exact_runs:
        charpolys["exact"] = [exact_u(g) for g in graphs]
        entry["charpoly_exact"] = t_json(*charpolys["exact"][0])
    if method in ("all", "transfer"):
        transfers = [transfer_u(x, k) for x in sides]
        charpolys["transfer"] = [charpoly for charpoly, _ in transfers]
        entry["short_part"] = t_json(*transfers[0][1])
    if oracle_runs:
        try:
            charpolys["oracle"] = [oracle_u(g, budget) for g in graphs]
        except BudgetError as exc:
            if method == "oracle":
                raise
            charpolys["oracle"] = None
            entry["oracle_skipped"] = str(exc)
    if len(sides) == 2:
        sparse, dense = sides if counts[0] <= counts[1] else sides[::-1]
        entry["subgraph_sparse_in_dense"] = ring_embeds(sparse, dense, k)
        # for tau >= 3 and k > 0, G(w) and G(w') are isomorphic exactly when
        # w' is a rotation or reflection of w (README, "Why toggled rings differ")
        entry["witness"] = ("edge_count" if counts[0] != counts[1]
                            else None if trivial else "ring_class")
    # each route's polynomials, as (coeffs, den) pairs in lowest terms, agree
    # on the two sides, and on G(w) match the exact route's (when that ran)
    checks = {}
    for route, polys in charpolys.items():
        if len(sides) == 2:
            checks[f"{route}_equal"] = None if polys is None else polys[0] == polys[1]
        if polys is not None and route != "exact" and "exact" in charpolys:
            checks[f"{route}_matches_exact"] = polys[0] == charpolys["exact"][0]
    entry["checks"] = checks
    entry["pass"] = all(v for v in checks.values() if v is not None)
    entry["seconds"] = round(time.perf_counter() - start, 6)
    return entry


def cmd_verify(args: SimpleNamespace) -> int:
    entry = _verify_pair(args.word, args.k, args.method, args.budget,
                         trivial=is_self_toggle(args.word))
    status = "PASS" if entry["pass"] else "FAIL"
    summary = f"verify {args.word} vs {entry['toggled_word']} (k={entry['k']}): {status}"
    return _report(args, {"backend": BACKEND, "result": entry}, summary, passed=entry["pass"])


def cmd_scan(args: SimpleNamespace) -> int:
    entries = []
    summary = dict.fromkeys(("pairs_checked", "failures", "skipped", "trivial", "witnessed",
                             "subgraph_hits"), 0)
    for w, trivial in toggle_classes(3, args.tau_max):
        for k in args.k:
            try:
                entry = _verify_pair(w, k, args.method, args.budget, trivial=trivial,
                                     compare_trivial=False)
            except BudgetError as exc:
                entries.append({"word": str(w), "k": rat_str(k),
                                "trivial": trivial, "skipped": str(exc)})
                summary["skipped"] += 1
                continue
            entry["edge_delta"] = entry["edge_counts"][-1] - entry["edge_counts"][0]
            entries.append(entry)
            summary["pairs_checked"] += 1
            summary["failures"] += not entry["pass"]
            summary["trivial"] += trivial
            summary["witnessed"] += entry.get("witness") is not None
            summary["subgraph_hits"] += entry.get("subgraph_sparse_in_dense", False)
    payload = {
        "backend": BACKEND,
        "tau_max": args.tau_max,
        "k": [rat_str(k) for k in args.k],
        "entries": entries,
        "summary": summary,
    }
    line = ("scan tau<={tau_max}: {pairs_checked} pairs ({trivial} trivial), {failures} failures, "
            "{skipped} skipped, {witnessed} witnessed").format(tau_max=args.tau_max, **summary)
    return _report(args, payload, line, passed=not summary["failures"],
                   skipped=bool(summary["skipped"]))


def _write_or_print(text: str, path: str) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_blowup(args: SimpleNamespace) -> int:
    w, k, scale = args.word, args.k, args.scale
    wt = toggle(w)
    if scale == 1:
        b1, b2 = simple_blowup_recipe(w, k)
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


def cmd_identities(args: SimpleNamespace) -> int:
    # certify_identities raises IdentityCheckError unless all hold
    entries = certify_identities()
    payload = {
        "domain": "k > 0, t not in {0, 1, 2}",
        "identities": entries,
        "pass": True,
    }
    return _report(args, payload,
                   f"identities: {len(entries)} hold as polynomials in (k, v = (t-1)^2): PASS")


def cmd_export(args: SimpleNamespace) -> int:
    g = assemble_ring(args.word, args.k)
    _write_or_print(export_graph(g, args.format), args.out)
    print(f"exported {g}", file=sys.stderr)
    return 0


def cmd_spectrum(args: SimpleNamespace) -> int:
    g = assemble_ring(args.word, args.k)
    payload = {
        "word": str(args.word),
        "k": rat_str(args.k),
        "n": g.n,
        "eigenvalues": [float(x) for x in eigenvalues_numeric(g)],
    }
    return _report(args, payload, f"spectrum of G({args.word}), n={g.n}")


def cmd_charpoly(args: SimpleNamespace) -> int:
    w, k = args.word, args.k
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


Option = namedtuple("Option", "name default read choices help", defaults=(str, (), ""))
Command = namedtuple("Command", "run help options")
REQUIRED = object()  # the default of an option that must be given
WORD = Option("--word", REQUIRED, parse_word, help="module word over P/C/E")
K = Option("--k", "1", lambda text: module_parameter(parse_rat(text)),
           help='module parameter as "p/q"')
FORMAT = Option("--format", "json", choices=("json", "dot", "csv"))
ROUTES = (Option("--method", "all", choices=("all", "exact", "transfer", "oracle")),
          Option("--budget", DEFAULT_BUDGET, int, help="most decompositions the oracle may sum"))
COMMANDS = {
    "verify": Command(cmd_verify, "check one toggled pair by all methods", (WORD, K, *ROUTES)),
    "scan": Command(cmd_scan, "verify every cyclic word class up to a length",
                    (Option("--tau-max", REQUIRED, int, help="longest word length, 3 to 12"),
                     Option("--k", "1/1,2/1,1/2", module_parameters,
                            help="comma-separated k values"), *ROUTES)),
    "blowup": Command(cmd_blowup, "emit a simple cospectral pair of blowups",
                      (WORD, K, Option("--scale", "1", parse_rat, help="pre-scale edge weights"),
                       FORMAT, Option("--out", "", help="directory for the two blowup files"))),
    "identities": Command(cmd_identities, "prove the transfer-matrix identities for all k > 0, "
                                          "t not in {0, 1, 2}", ()),
    "export": Command(cmd_export, "serialize one ring graph",
                      (WORD, K, FORMAT, Option("--out", "", help="output file, stdout when ''"))),
    "spectrum": Command(cmd_spectrum, "numeric normalized-Laplacian eigenvalues", (WORD, K)),
    "charpoly": Command(cmd_charpoly, "exact characteristic polynomial", (WORD, K, *ROUTES)),
}


def _help(name: str = "") -> str:
    """The usage line, then a line per command or, for command `name`, per option."""
    rows = [("-h, --help", "this help")] + [(n, c.help) for n, c in COMMANDS.items() if not name]
    for o in COMMANDS[name].options if name else ():
        given = "required" if o.default is REQUIRED else f"default {o.default!r}"
        rows.append((o.name, " ".join(filter(None, (o.help, "|".join(o.choices), f"({given})")))))
    return "\n".join([f"usage: cospec {name or '[--version] COMMAND'} [-h] [--OPTION VALUE ...]",
                      ""] + [f"  {left:<10}  {right}" for left, right in rows])


def parse_args(argv: list) -> SimpleNamespace | None:
    """The command and each of its options, given once as `--name value` (a value may start
    with "-" only as a negative number) or `--name=value`, or defaulted; None once
    -h/--help or --version has printed from `COMMANDS`."""
    name = argv[0] if argv else ""
    if name in ("-h", "--help", "--version"):
        print(__version__ if name == "--version" else _help())
        return None
    if name not in COMMANDS:  # repr, as below: an argument may hold a line break
        raise CospecError(f"expected a command ({', '.join(COMMANDS)}), got {name!r}")
    options = {o.name: o for o in COMMANDS[name].options}
    given, rest = {}, iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            print(_help(name))
            return None
        key, eq, value = arg.partition("=")
        if key not in options:
            raise CospecError(f"unrecognized argument {arg!r}")
        if key in given:
            raise CospecError(f"argument {key}: given more than once")
        if not eq:
            value = next(rest, None)
            if value is None or value[:1] == "-" and not value[1:].replace(".", "", 1).isdecimal():
                raise CospecError(f"argument {key}: expected one value")
        read, choices = options[key].read, options[key].choices
        if choices and value not in choices:
            raise CospecError(f"argument {key}: {value!r} is not one of {', '.join(choices)}")
        try:
            given[key] = read(value)
        except CospecError:  # a reader's own message
            raise
        except ValueError:
            raise CospecError(f"argument {key}: {value!r} is not an {read.__name__}") from None
    if missing := [k for k, o in options.items() if o.default is REQUIRED and k not in given]:
        raise CospecError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=name, **{k[2:].replace("-", "_"): given[k] if k in given
                                            else o.read(o.default) for k, o in options.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:  # --help or --version
            return 0
        if args.command == "scan" and not (3 <= args.tau_max <= 12):
            raise ParameterError(f"--tau-max must be in [3, 12], got {args.tau_max}")
        if getattr(args, "budget", 1) < 1:
            raise ParameterError(f"--budget must be at least 1, got {args.budget}")
        return COMMANDS[args.command].run(args)
    except (CospecError, ValueError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # stdout closed early; its last flush goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            exc = OutputError(f"cannot write stdout: {exc.strerror}")
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", CospecError.exit_code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
