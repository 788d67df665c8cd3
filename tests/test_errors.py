"""The error classes: each one is raised somewhere in the package."""

import ast
from pathlib import Path

import bufferlane

PACKAGE = Path(bufferlane.__file__).parent


def engine_errors():
    """The names of the BufferlaneError subclasses in errors.py."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    names = {"BufferlaneError"}
    for node in tree.body:  # a subclass follows its base in the file
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names - {"BufferlaneError"}


def raised_names():
    """The names raised by a `raise X` or `raise X(...)` in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    errors = engine_errors()
    assert {"ScenarioSemanticError", "InvariantViolation"} <= errors
    assert sorted(errors - raised_names()) == []
