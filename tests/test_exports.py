"""Every exported name, and every public method and property of an exported
class, is used by the program itself, not only by tests."""

import ast
from functools import cached_property
from pathlib import Path
from types import FunctionType

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


def program_names() -> set[str]:
    """The names loaded anywhere in the program outside its tests and package roots."""
    used: set[str] = set()
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py" or "tests" in path.relative_to(ROOT).parts:
                continue
            used |= loaded_names(ast.parse(path.read_text(), str(path)))
    return used


def test_every_export_is_used_outside_tests():
    assert sorted(set(nashblowup.__all__) - program_names()) == []


def public_members(cls: type) -> list[str]:
    """The public methods and properties a class defines itself."""
    kinds = (FunctionType, classmethod, staticmethod, property, cached_property)
    return sorted(name for name, value in vars(cls).items() if not name.startswith("_") and isinstance(value, kinds))


def test_every_public_member_of_an_exported_class_is_used_outside_tests():
    used = program_names()
    exported = [getattr(nashblowup, name) for name in nashblowup.__all__]
    unused = [
        f"{cls.__name__}.{name}"
        for cls in exported
        if isinstance(cls, type)
        for name in public_members(cls)
        if name not in used
    ]
    assert unused == []
