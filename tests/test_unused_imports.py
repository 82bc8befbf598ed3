"""Every name a `pne` module imports is referenced in that module, and every
top-level function, class and assigned name of `pne` is referenced by the
package, the demos or the benchmark. Tests do not count as references."""

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
    """Loaded names, attributes, imported names (so re-exports count) and
    string constants (the benchmark's tracer looks callables up by name).
    Assigning a name does not reference it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def top_level_names(source):
    """Names of the module's top-level functions and classes, and the names
    its top-level assignments bind."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))


def unreferenced_definitions(defining, referencing):
    """Top-level definitions of the `defining` sources whose name appears in
    none of the `referencing` sources."""
    defined = {name for source in defining for name in top_level_names(source)}
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


def test_detects_unread_constant():
    """A top-level assigned name counts only where some source loads it, or
    names it as an attribute, an import or a string."""
    defining = ["LOADED = 1\nDEAD = LOADED\nA, (B, C) = 1, (2, 3)\nTYPED: int = 0\n"
                "SHADOWED = 0\nATTR = IMPORTED = NAMED = 4\nprint(A, B)\n"]
    referencing = defining + ["SHADOWED = 1\nm.ATTR\nfrom m import IMPORTED\nhook('NAMED')\n"]
    assert unreferenced_definitions(defining, referencing) == ["C", "DEAD", "SHADOWED", "TYPED"]


def test_every_definition_is_referenced():
    defining = [p.read_text() for p in MODULES]
    assert unreferenced_definitions(defining, [p.read_text() for p in REFERENCING]) == []
