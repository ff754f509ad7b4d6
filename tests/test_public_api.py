"""The package's public names and the README's library example agree."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import revsym

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_every_exported_name_resolves():
    modules = [revsym] + [
        importlib.import_module(f"revsym.{info.name}") for info in pkgutil.iter_modules(revsym.__path__)
    ]
    assert len(modules) > 1
    missing = [
        f"{module.__name__}.{name}" for module in modules for name in module.__all__ if not hasattr(module, name)
    ]
    assert missing == []


def test_each_package_name_is_its_declaring_submodules_object():
    # the package star-imports its submodules, so a later one could shadow an earlier one's name
    assert len(revsym.__all__) == len(set(revsym.__all__))
    submodules = [importlib.import_module(f"revsym.{info.name}") for info in pkgutil.iter_modules(revsym.__path__)]
    for name in revsym.__all__:
        owners = [module for module in submodules if name in module.__all__]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(revsym, name) is getattr(owners[0], name), name


def test_series_computations_are_declared_by_power_series_alone():
    # the routes on the kernels and both certificates live beside them; the
    # deleted wrappers expand and enumerate_count, and the dissection
    # reference that moved into the tests, have no alias anywhere
    from revsym import dissection_oracle, power_series, symbols

    routes = {"lagrange_coefficients", "revert_direct", "unroll_ode", "count_by_series", "verify_inverse",
              "verify_tautological"}
    deleted = {"expand", "enumerate_count", "Dissection", "tiles_of", "iter_dissections"}
    assert routes <= set(power_series.__all__)
    assert not deleted & set(vars(revsym))
    for module in (dissection_oracle, symbols):
        assert not (routes | deleted) & set(vars(module)), module.__name__


def test_cli_exports_main_alone_and_declares_no_error_type():
    # every refusal of the CLI raises an error type of the library modules,
    # so `main` maps one set of types to exit 2
    from revsym import cli

    assert cli.__all__ == ["main"]
    declared = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, type) and issubclass(value, BaseException) and value.__module__ == cli.__name__
    ]
    assert declared == []


def test_the_public_error_types_are_the_three_main_maps_to_exit_2():
    # a record or a library function refuses with the built-in ValueError; a
    # new error type would need its own branch in main
    errors = {name for name in revsym.__all__ if isinstance(getattr(revsym, name), type)
              and issubclass(getattr(revsym, name), BaseException)}
    assert errors == {"ParseError", "DomainError", "NonIntegerCoefficient"}


def test_readme_library_block_runs_and_imports_only_public_names():
    block = _library_block()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "revsym"
        for alias in node.names
    }
    assert imported and imported <= set(revsym.__all__)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    # a line `expr  # literal` documents the value of expr
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if not sep or not code.strip():
            continue
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue
        assert eval(code, namespace) == expected, line


def test_readme_states_the_number_of_public_names():
    match = re.search(r"There are (\d+)\s+public names\.", README.read_text(encoding="utf-8"))
    assert match, "README states no count of public names"
    assert int(match.group(1)) == len(revsym.__all__)
