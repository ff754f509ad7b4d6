"""The package imports nothing outside the standard library, and only
``power_series`` holds the series kernels."""

import ast
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
