import ast
from pathlib import Path

import cellwatch
from cellwatch import errors

SOURCES = sorted(Path(cellwatch.__file__).parent.glob("*.py"))


def constructed_names(tree: ast.AST) -> set[str]:
    """The names that ``tree`` calls, or raises bare, as ``Name(...)``, ``module.Name(...)`` or ``raise Name``."""
    names = set()
    for node in ast.walk(tree):
        target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def test_every_domain_error_is_raised_somewhere():
    # A domain error that no code constructs is dead: its docstring promises a check the program no longer makes.
    module = ast.parse(Path(errors.__file__).read_text())
    declared = {node.name for node in module.body if isinstance(node, ast.ClassDef)}
    assert declared and all(issubclass(getattr(errors, name), errors.CellwatchError) for name in declared)
    constructed = set().union(*(constructed_names(ast.parse(path.read_text())) for path in SOURCES))
    assert sorted(declared - constructed) == []


def test_a_class_only_declared_counts_as_dead():
    tree = ast.parse("class Dead(Exception): pass\nclass Live(Exception): pass\nraise Live('x')\n")
    assert "Live" in constructed_names(tree) and "Dead" not in constructed_names(tree)
