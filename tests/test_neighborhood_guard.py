"""Only `NeighborhoodSpec` tells a ball query from kNN: no other code of
`pne` compares a value with `==` or `!=` against a neighborhood kind."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pne"
KINDS = {"ball_query", "knn"}
OWNER = "NeighborhoodSpec"


def kind_comparisons(source):
    """Line numbers of `==`/`!=` comparisons against a neighborhood kind
    outside the class `OWNER`."""
    lines = []

    def visit(node, inside):
        inside = inside or (isinstance(node, ast.ClassDef) and node.name == OWNER)
        if (isinstance(node, ast.Compare) and not inside
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(isinstance(o, ast.Constant) and o.value in KINDS
                        for o in [node.left, *node.comparators])):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return lines


def test_detects_kind_comparison():
    source = ('a = kind == "knn"\n'
              'def f(nb):\n    return "ball_query" != nb.kind\n'
              'class NeighborhoodSpec:\n    def g(self):\n        return self.kind == "knn"\n'
              'class Other:\n    def h(self):\n        return f(x != "knn")\n'
              'b = kind in ("knn", "ball_query") or kind == "kp"\n')
    assert kind_comparisons(source) == [1, 3, 9]


def test_only_neighborhood_spec_compares_kinds():
    found = {path.name: kind_comparisons(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
