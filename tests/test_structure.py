"""The package's shape: independent routes, no test code in `src/`, and a
public surface that works as documented."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cospec
import cospec.cli  # every module, so every error class is defined

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cospec"
ROUTES = {"linalg", "decomps", "transfer"}


def imported_modules(path: Path) -> set:
    """Every module a source file imports, relative imports resolved
    inside the package (`from . import x` names `cospec.x`)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ("cospec." if node.level else "") + (node.module or "")
            if node.module:
                names.add(base)
            else:
                names.update(f"cospec.{alias.name}" for alias in node.names)
    return names


def test_routes_import_none_of_each_other():
    for route in ROUTES:
        imports = imported_modules(PACKAGE / f"{route}.py")
        others = {f"cospec.{r}" for r in ROUTES - {route}}
        assert not imports & others, (route, sorted(imports & others))


def imported_names(path: Path) -> list:
    """Every name a source file imports, in full: `cospec.graphs.WeightedGraph`
    for `from .graphs import WeightedGraph`, `numpy` for `import numpy`."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["cospec" if node.level else "", node.module]))
            names += [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_routes_work_in_integers():
    # Fraction only parses and prints: a route takes k in through
    # module_parameter and imports nothing else of the rationals
    for route in ROUTES:
        for name in imported_names(PACKAGE / f"{route}.py"):
            assert name.split(".")[0] != "fractions", (route, name)
            assert (name == "cospec.rationals.module_parameter"
                    or not name.startswith("cospec.rationals")), (route, name)


def test_routes_import_no_numpy_and_only_the_graph_class():
    # the numeric spectrum lives in graphs: a route is exact arithmetic on
    # a WeightedGraph (or a word) and takes nothing else from graphs
    for route in ROUTES:
        for name in imported_names(PACKAGE / f"{route}.py"):
            assert name.split(".")[0] != "numpy", (route, name)
            assert name == "cospec.graphs.WeightedGraph" or not name.startswith("cospec.graphs"), (
                route, name)


def test_package_imports_no_test_code():
    for path in PACKAGE.glob("*.py"):
        for name in imported_modules(path):
            parts = name.split(".")
            assert "tests" not in parts and not parts[-1].endswith("_reference"), (path.name, name)


def test_every_error_carries_an_exit_code():
    classes, todo = [], [cospec.errors.CospecError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    assert len(classes) > 1
    for cls in classes:
        assert cls.exit_code in {1, 2, 3}, cls.__name__


def test_every_exported_name_resolves():
    assert len(set(cospec.__all__)) == len(cospec.__all__)
    for name in cospec.__all__:
        assert getattr(cospec, name) is not None, name


def test_readme_python_usage_runs():
    readme = (ROOT / "README.md").read_text()
    usage = readme[readme.index("## Usage"):]
    block = re.search(r"```python\n(.*?)```", usage, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


EXACT_COMMANDS = [["charpoly", "--word", "PCEP", "--k", "3/5", "--method", "all"],
                  ["identities"], ["export", "--word", "PCE"],
                  ["verify", "--word", "PCE", "--k", "2"],
                  ["scan", "--tau-max", "4", "--k", "1,7/3", "--method", "all"]]


def run_then_check_unloaded(argvs: list, module: str) -> subprocess.CompletedProcess:
    """Run each argv through `main` in a fresh interpreter, then exit 1 if `module` was
    imported; a subprocess, since this pytest session may have imported it itself."""
    script = f"""
import contextlib, io, sys
from cospec.cli import main
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"{{argv}} exited {{code}}")
if {module!r} in sys.modules:
    sys.exit("{module} was imported")
"""
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)


def test_exact_commands_never_load_numpy():
    result = run_then_check_unloaded(EXACT_COMMANDS, "numpy")
    assert result.returncode == 0, result.stderr


def test_the_package_never_loads_argparse():
    # the command table is parsed by cli.parse_args, help included
    result = run_then_check_unloaded(EXACT_COMMANDS + [["scan", "--help"]], "argparse")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("argv", [["spectrum", "--word", "EEE"],
                                  ["blowup", "--word", "EEEPCC", "--k", "2"],
                                  ["blowup", "--word", "ECC", "--k", "1", "--scale", "2"],
                                  ["blowup", "--word", "EEEPCC", "--k", "2", "--out", "{dir}"]])
def test_numeric_spectrum_without_numpy_exits_2(tmp_path, argv):
    # numpy blocked before cospec.cli is imported, as in a broken install
    script = ('import sys; sys.modules["numpy"] = None; from cospec.cli import main; '
              'sys.exit(main(sys.argv[1:]))')
    argv = [a.format(dir=tmp_path) for a in argv]
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert "Traceback" not in result.stderr
    # blowup computes the gap before it writes either graph
    assert not any(tmp_path.iterdir())
