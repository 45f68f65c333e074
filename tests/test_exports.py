"""Every exported name is used by the program itself, not only by tests."""

import ast
from pathlib import Path

import nashblowup

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "scripts", "perfbench")


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read as a bare name or an attribute, outside the definition of
    that name and outside annotations, which the program never evaluates."""
    names: set[str] = set()

    def visit(node: ast.AST, defining: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in defining:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in defining:
            names.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, defining)

    visit(tree, frozenset())
    return names


def test_every_export_is_used_outside_tests():
    used: set[str] = set()
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py" or "tests" in path.relative_to(ROOT).parts:
                continue
            used |= loaded_names(ast.parse(path.read_text(), str(path)))
    assert sorted(set(nashblowup.__all__) - used) == []
