"""Every name a package module imports is used in that module.

Read with the standard ``ast`` module only: a name counts as used when it
appears as a name anywhere in the module (attribute roots included) or is
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ivimlab"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by an import statement -> the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported_names(tree).items())
            if name not in used]


class TestUnusedImports:
    def test_finds_an_unused_import_and_counts_all_and_attribute_roots(self):
        source = ("from __future__ import annotations\n"
                  "import os.path\nimport math\nfrom . import stats\n"
                  "from .grid import Volume3D as V\n"
                  "__all__ = ['V']\n"
                  "def f():\n    return os.path.join('a', 'b')\n")
        assert unused_imports(source) == ["line 3: math", "line 4: stats"]

    @pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
    def test_package_module_uses_every_import(self, module):
        assert unused_imports(module.read_text(encoding="utf-8")) == []
