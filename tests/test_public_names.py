"""Every public name the package defines is referenced by the package or its
benchmark.

Read with the standard ``ast`` module only. A public module-level function or
class, or a public method of a module-level class, counts as referenced when
its name appears as a ``Name`` or as an ``Attribute`` anywhere in
``src/ivimlab/*.py`` or ``perfbench/*.py``. Tests do not count: a name that
only a test reaches is code no pipeline runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ivimlab"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# name -> why it stays although nothing in the package or benchmark reads it
ALLOWED: dict[str, str] = {}

_DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def public_definitions(module: str, tree: ast.Module) -> dict[str, str]:
    """``module.name`` or ``module.Class.method`` -> its bare name, for each
    public module-level function and class and each public method."""
    found = {}
    for node in tree.body:
        if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
            continue
        found[f"{module}.{node.name}"] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFINITIONS) and not item.name.startswith("_"):
                    found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def referenced_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(modules: dict[str, str], readers: list[str]) -> list[str]:
    """The public definitions of ``modules`` (name -> source) that no source in
    ``readers`` references."""
    used = set()
    for source in readers:
        used |= referenced_names(ast.parse(source))
    defined = {}
    for module, source in modules.items():
        defined.update(public_definitions(module, ast.parse(source)))
    return sorted(full for full, name in defined.items() if name not in used)


class TestPublicNames:
    def test_finds_unreferenced_functions_classes_and_methods(self):
        source = ("def used():\n    return Kept().run()\n"
                  "def unused():\n    pass\n"
                  "def _private():\n    pass\n"
                  "class Kept:\n    def run(self):\n        pass\n"
                  "    def idle(self):\n        pass\n"
                  "    def __len__(self):\n        return 0\n"
                  "class Lost:\n    pass\n")
        reader = "import m\nm.used()\n"
        assert unreferenced({"m": source}, [source, reader]) == [
            "m.Kept.idle", "m.Lost", "m.unused"]

    def test_every_public_name_is_referenced_outside_tests(self):
        modules = {path.stem: path.read_text(encoding="utf-8")
                   for path in sorted(PACKAGE.glob("*.py"))}
        readers = [path.read_text(encoding="utf-8") for path in READERS]
        found = unreferenced(modules, readers)
        assert [name for name in found if name not in ALLOWED] == []
        # an allowlist entry that is referenced again, or no longer defined, is stale
        assert sorted(ALLOWED) == [name for name in found if name in ALLOWED]
