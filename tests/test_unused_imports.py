"""Every name a `pne` module imports is referenced in that module, and every
top-level function and class of `pne` is referenced by the package, the
demos or the benchmark. Tests do not count as references."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pne"
ROOT = SRC.parent.parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REFERENCING = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
    p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.relative_to(ROOT).parts
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def referenced_names(source):
    """Names, attributes, imported names (so re-exports count) and string
    constants (the benchmark's tracer looks callables up by name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced_definitions(defining, referencing):
    """Top-level functions and classes of the `defining` sources whose name
    appears in none of the `referencing` sources."""
    defined = {
        node.name
        for source in defining for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    referenced = set().union(*(referenced_names(source) for source in referencing))
    return sorted(defined - referenced)


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nimport x.y\nc(x)") == ["e", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unreferenced_definition():
    defining = ["def used():\n    pass\ndef dead():\n    used()\nclass Dead:\n    def m(self):\n        pass\n"
                "class Exported:\n    pass\nclass Traced:\n    pass\n"]
    referencing = defining + ["from m import Exported\nhook('Traced')\n"]
    assert unreferenced_definitions(defining, referencing) == ["Dead", "dead"]


def test_every_definition_is_referenced():
    defining = [p.read_text() for p in MODULES]
    assert unreferenced_definitions(defining, [p.read_text() for p in REFERENCING]) == []
