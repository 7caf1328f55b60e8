"""Every name a module of the package imports is used in that module, and
every public function or method has a caller in the package.

The project depends on no linter, so this walks the syntax trees: a name
bound by an import statement must be read somewhere else in the module.
`__init__.py` is exempt, because its imports are the package's exports.
A public definition must be referenced somewhere in the package outside its
own body and outside `__init__.py`; the few kept without a caller are
listed in `UNCALLED`, each with its reason.
"""

import ast
from collections import Counter
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


# public definitions kept although nothing in the package calls them
UNCALLED = {
    "cli._ArgumentParser.error": "argparse calls it: a usage error becomes exit 3",
    "counting.minimal_admissible_d": "acceptance 01: the d = 752 threshold",
    "divisibility.solution_dimension": "acceptance 09; ROADMAP item 1 changes its meaning",
    "jetbuilder.unit_field": "ROADMAP item 15: the unit fields of a basis transfer suite",
    "jetbuilder.CoefficientField.from_json_dict": "the inverse of to_json_dict: reads a "
                                                  "report's field back",
    "jetbuilder.LambdaExpansion.reconstruct": "acceptance 03: the expansion route's J",
    "linalg.SparseMatrix.matvec": "acceptance 05: kernel vectors checked on the system",
}


def referenced_names(node: ast.AST) -> Counter:
    """How often each name is read under node, as a name or as an attribute."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and method."""
    for node in tree.body:
        is_class = isinstance(node, ast.ClassDef)
        prefix, members = (node.name + ".", node.body) if is_class else ("", [node])
        for sub in members:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and sub.name[0] != "_":
                yield prefix + sub.name, sub


def uncalled_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each public definition no code of the package references.

    sources maps module names to their text.  A reference is any read of
    the bare name, so a method shares its callers with every definition of
    the same name, and references inside a definition's own body (recursion)
    or in `__init__` (the exports) do not count.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    references = Counter()
    for module, tree in trees.items():
        if module != "__init__":
            references.update(referenced_names(tree))
    return [f"{module}.{qualname}" for module, tree in trees.items()
            for qualname, node in public_definitions(tree)
            if references[node.name] <= referenced_names(node)[node.name]]


def test_detects_an_uncalled_definition():
    sources = {
        "__init__": "from .a import planted, used\n",
        "a": ("def used():\n    return 1\n"
              "def planted():\n    return used()\n"
              "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
              "def _private():\n    return 0\n"
              "class Kind:\n    def read(self):\n        return 0\n"
              "    def unread(self):\n        return self.read()\n"
              "    def __add__(self, other):\n        return self\n"),
        "b": "from .a import Kind, used\nvalue = used() + Kind().read()\n",
    }
    assert uncalled_definitions(sources) == ["a.planted", "a.recursive", "a.Kind.unread"]


def test_every_public_definition_has_a_caller():
    uncalled = uncalled_definitions({path.stem: path.read_text()
                                     for path in PACKAGE.glob("*.py")})
    assert sorted(set(uncalled) - set(UNCALLED)) == []
    # an entry that gained a caller, or whose definition went, leaves the list
    assert sorted(set(UNCALLED) - set(uncalled)) == []
