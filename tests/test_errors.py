"""The package's own names: each error class is raised, and each function
and method read, somewhere in the package; only the network's degree
table reads node kinds, one search loop pops a heap, and a car query
converts its tracker kind once, not per road leg."""

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


def degree_table(tree):
    """The nodes of network.py's `_DEGREES` literal, which gives each
    kind its (in, out) degree pair."""
    (table,) = [stmt.value for stmt in tree.body if isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_DEGREES"
                        for t in stmt.targets)]
    return set(ast.walk(table))


def node_kind_readers():
    """`module:line` of each read of a `NodeKind` member outside network.py's
    `_DEGREES` literal."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = degree_table(tree) if path.name == "network.py" else set()
        readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "NodeKind" and node not in allowed]
    return readers


def test_only_the_network_reads_node_kinds():
    # a node's role comes from its roads, in the junction table and in
    # validation alike: a kind only names a degree pair.  The scenario
    # parser may still make a kind from its name, `NodeKind(...)`
    assert node_kind_readers() == []


def heap_pops():
    """`module:line` of each `heappop` call in the package."""
    pops = []
    for path in sorted(PACKAGE.glob("*.py")):
        pops += [f"{path.name}:{node.lineno}"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and "heappop" in (getattr(node.func, "attr", None),
                                   getattr(node.func, "id", None))]
    return pops


def test_one_search_loop():
    # every routing policy runs `routing._search`; a second Dijkstra loop
    # is a second copy of its heap, settled set and tie-break
    assert len(heap_pops()) == 1, heap_pops()


def calls_of(tree, name, where=None):
    """The name of the function around each call `name(...)` in `tree`
    (None at module level)."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if isinstance(node, ast.FunctionDef) else where
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
            yield where
        yield from calls_of(node, name, inner)


def test_tracker_kind_converted_once_per_query():
    # a query drives or replays many legs and waits: only the public entry
    # points convert the kind a caller gives, and the memo is an attribute
    # of the log, not a weakref table looked up per leg
    made = sorted(f"{path.name}:{where}" for path in PACKAGE.glob("*.py")
                  for where in calls_of(ast.parse(path.read_text()),
                                        "TrackerKind"))
    assert made == ["routing.py:fastest_path", "run.py:plan_route",
                    "tracker.py:track_car"]
    tree = ast.parse((PACKAGE / "tracker.py").read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "weakref" not in imported
