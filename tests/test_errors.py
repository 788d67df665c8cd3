"""The package's own names: each error class is raised, and each function
and method read, somewhere in the package; only the network reads node
kinds."""

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


# called from outside the package only: the benchmark's mass check
# (`bench/checks.py`) sums the inflows of `sources()` and outflows of `sinks()`
BENCH_ONLY = {"RoadNetwork.sources", "RoadNetwork.sinks"}


def unread_functions():
    """The functions and methods defined in the package that no code in
    it reads: a method (`Class.name`) is read as an attribute `x.name`,
    any other function also by its bare name.  Python calls the dunder
    methods itself."""
    names, attrs, defined = set(), set(), {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ClassDef):  # walked before its methods
                defined.update((f, f"{node.name}.{f.name}") for f in node.body
                               if isinstance(f, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                defined.setdefault(node, node.name)
    return {label for f, label in defined.items()
            if not f.name.startswith("__") and f.name not in attrs
            and ("." in label or f.name not in names)}


def test_every_function_is_read():
    # a function kept only for tests is a second copy of the program:
    # the tests' scalar reference step lives in tests/reference.py
    assert sorted(unread_functions() - BENCH_ONLY) == []


def node_kind_readers():
    """`module:line` of each read of a `NodeKind` member outside
    network.py, which validates each node against its kind."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "network.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "NodeKind"]


def test_only_the_network_reads_node_kinds():
    # a junction row's role comes from its roads; the scenario parser may
    # still make a kind from its name, `NodeKind(...)`
    assert node_kind_readers() == []
