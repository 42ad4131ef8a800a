"""The package surface and the demos that use it."""

from __future__ import annotations

import ast
import re
import runpy
from collections import Counter
from pathlib import Path

import pytest

import mpsynth

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "CostModel",
    "CostModelError",
    "DEFAULT_BUDGET",
    "Dag",
    "EnumerationBudget",
    "complexity",
    "dumps",
    "format_rational",
    "latency",
    "load_cost_model",
    "loads",
    "synthesize_min_latency",
    "synthesize_star",
    "to_dot",
    "validate",
    "verify_report",
]


def readme_library_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"from mpsynth import \(([^)]*)\)", readme).group(1)
    return {name.strip() for name in block.split(",") if name.strip()}


def cli_imported_names() -> set[str]:
    tree = ast.parse((ROOT / "src" / "mpsynth" / "cli.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }


def test_public_surface_is_the_explicit_list():
    assert mpsynth.__all__ == PUBLIC
    namespace: dict = {}
    exec("from mpsynth import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_public_surface_is_what_the_cli_and_readme_use():
    readme = readme_library_names()
    assert "synthesize_star" in readme
    assert readme <= set(PUBLIC)
    assert set(PUBLIC) == readme | cli_imported_names()


def referenced_names(node: ast.AST) -> Counter[str]:
    # bare names only: an attribute of the same name (a property, a
    # method) is not a use of a module-level definition
    return Counter(sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name))


def test_every_public_definition_is_used_in_src():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "mpsynth").glob("*.py"))
    }
    everywhere = sum(map(referenced_names, modules.values()), Counter())
    # oracles is exempt: it holds the references the tests check against
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        if stem != "oracles"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and everywhere[node.name] == referenced_names(node)[node.name]
    ]
    assert unused == []


@pytest.mark.parametrize(
    "module", sorted(path.name for path in (ROOT / "src" / "mpsynth").glob("*.py"))
)
def test_every_module_parses_as_python_3_10(module):
    # pyproject.toml says requires-python = ">=3.10"
    source = (ROOT / "src" / "mpsynth" / module).read_text(encoding="utf-8")
    ast.parse(source, filename=module, feature_version=(3, 10))


@pytest.mark.parametrize("demo", sorted(path.name for path in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / demo), run_name="__main__")
    assert capsys.readouterr().out
