"""Every name a module of the package imports is used in that module.

The project depends on no linter, so this walks the syntax trees: a name
bound by an import statement must be read somewhere else in the module.
`__init__.py` is exempt, because its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jetdiff"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names bound by the module's imports, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation in the module: of arguments, returns and assignments."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def read_names(tree: ast.Module) -> set[str]:
    """The names the module reads, also inside quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = read_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items()
            if name not in used]


def test_the_walk_sees_the_package():
    assert {path.name for path in MODULES} >= {"cli.py", "injectivity.py", "polyring.py"}


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport random\nfrom fractions import Fraction as F\n"
              "from .polyring import ExactPoly, poly_substitute\n"
              "def f(p: 'ExactPoly') -> int:\n    return os.sep and F('poly_substitute')\n")
    assert unused_imports(source) == ["random (line 3)", "poly_substitute (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
