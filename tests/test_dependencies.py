"""The package imports nothing outside the standard library, only
``power_series`` holds the series kernels, and importing the CLI stays
light."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "revsym"
KERNELS = {"_conv", "_div_raw", "_compose_raw", "_halving_plan"}


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def test_every_absolute_import_is_stdlib():
    outside = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{name}: {m}" for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def _relative_imports(tree):
    """The sibling modules a source file imports: ``from .m import a`` and ``from . import m`` both name m."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else [alias.name for alias in node.names]


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_only_the_cli_and_the_package_import_power_series():
    # the closed forms, both brute-force counters and the symbols use no
    # series kernel, so a kernel defect cannot reach their checks
    importers = [name for name, tree in _trees().items() if "power_series" in _relative_imports(tree)]
    assert importers == ["__init__", "cli"]


def test_only_power_series_binds_a_series_kernel():
    bound = {name: KERNELS & set(_bound_names(tree)) for name, tree in _trees().items()}
    assert bound.pop("power_series") == KERNELS
    assert {name: kernels for name, kernels in bound.items() if kernels} == {}


def _loaded(code, modules):
    """Which of ``modules`` are loaded after ``code`` runs in a fresh ``-S`` interpreter.

    -S keeps site-packages hooks out, so only revsym's own imports count.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); {code}; print(sorted({modules!r} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    return result.stdout.splitlines()[-1]


def test_importing_the_cli_stays_light():
    # every command starts with this import; dataclasses and the inspect,
    # ast, dis and tokenize it pulls in were about a third of it, and
    # argparse loads only when main falls back to it
    assert _loaded("import revsym.cli", {"dataclasses", "inspect", "argparse", "gettext"}) == "[]"


def test_a_well_formed_command_of_each_kind_runs_without_argparse(tmp_path):
    # argparse's first parser build imports gettext and locale; main reads
    # these lines itself
    lines = [["list"], ["terms", "catalan", "--count", "3"], ["verify", "catalan", "--count", "3"],
             ["from-tiles", "3", "--count", "3"], ["bfile", "catalan", "--count", "3", "--out", str(tmp_path / "b")]]
    code = f"from revsym.cli import main; assert [main(argv) for argv in {lines!r}] == [0] * 5"
    assert _loaded(code, {"argparse", "gettext", "locale"}) == "[]"
