"""Package structure: every import sits at module level, so the import
graph of ``layoutkit`` is visible and acyclic; recursion runs one frame per
level and leaves no reference cycles; every export is tested."""

import ast
import inspect
import re
from pathlib import Path

import layoutkit

# scopes that run in a frame of their own (comprehensions too, before 3.12)
_NESTED_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.GeneratorExp,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
)


def _source_trees():
    for path in sorted(Path(layoutkit.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_imports_inside_functions():
    offenders = []
    for path, tree in _source_trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        offenders.append(f"{path.name}:{node.lineno} in {fn.name}")
    assert offenders == []


def test_module_graph():
    # one module per category, each importing only the layers below it:
    # shapes, then Tuple (flat layouts and tuple morphisms), then Nest
    # (nested layouts and nest morphisms); the front ends sit on top
    imports = {}
    for path, tree in _source_trees():
        imports[path.stem] = {
            node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
    engine = {"errors", "shapes", "tuplecat", "nestcat"}
    assert set(imports) == engine | {"oracle", "notation", "cli", "__init__"}
    assert imports["errors"] == set()
    assert imports["shapes"] == {"errors"}
    assert imports["tuplecat"] == {"errors", "shapes"}
    assert imports["nestcat"] == {"errors", "shapes", "tuplecat"}
    assert imports["oracle"] <= engine
    assert imports["notation"] <= engine


def test_no_recursion_through_nested_scopes():
    # A recursive inner function is a closure that refers to itself, a
    # reference cycle only the cyclic collector frees; recursing through a
    # comprehension or generator expression costs two frames per level.
    offenders = []
    for path, tree in _source_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for scope in ast.walk(fn):
                if scope is fn or not isinstance(scope, _NESTED_SCOPES):
                    continue
                names = {fn.name, getattr(scope, "name", fn.name)}
                for call in ast.walk(scope):
                    if isinstance(call, ast.Call):
                        func = call.func
                        if getattr(func, "id", getattr(func, "attr", None)) in names:
                            offenders.append(f"{path.name}:{call.lineno} in {fn.name}")
    assert offenders == []


def test_every_export_is_named_in_a_test():
    tests = Path(__file__).parent
    text = "\n".join(p.read_text() for p in sorted(tests.glob("test_*.py")))
    untested = [
        name
        for name, obj in vars(layoutkit).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and not re.search(rf"\b{name}\b", text)
    ]
    assert untested == []


def test_unchecked_construction_stays_in_the_engine():
    # values built without validation come only from the engine's own
    # modules; the front ends validate what they read, and the oracle stays
    # independent of the engine it checks
    engine = {"tuplecat", "nestcat"}
    importers, callers = set(), set()
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if any(alias.name == "_unchecked" for alias in node.names):
                    importers.add(path.stem)
            elif isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "_unchecked":
                    callers.add(path.stem)
    assert callers == engine
    assert importers <= engine


def _scopes(tree):
    """(name, node) for each top-level function, each method as
    ``Class.method``, and each other top-level statement as ``<module>``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = item.name if isinstance(item, ast.FunctionDef) else "<class>"
                yield f"{node.name}.{name}", item
        else:
            yield "<module>", node


def test_validating_constructors_run_only_at_the_boundary():
    # entries are checked once, where they enter; the engine builds what it
    # derives from valid values with _unchecked, and never re-validates it
    validating = {
        "FlatLayout",
        "TupleMorphism",
        "NestMorphism",
        "Refinement",
        "MutualRefinement",
        "Layout",
    }
    boundary = {
        "identity",
        "nest_morphism",
        "substitute_profile",
        "Layout.__post_init__",
    }
    callers = set()
    for path, tree in _source_trees():
        if path.stem not in {"tuplecat", "nestcat"}:
            continue
        for name, scope in _scopes(tree):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call):
                    func = node.func
                    if getattr(func, "id", getattr(func, "attr", None)) in validating:
                        callers.add(name)
    assert callers == boundary


def _called_name(node):
    func = node.func
    return getattr(func, "id", getattr(func, "attr", None))


def test_a_tuple_is_the_only_node():
    # every walker in shapes asks whether a value is a tuple, never whether
    # it is an int: anything but a tuple is a leaf, which the entry checks
    # then refuse unless it is an int
    path = Path(layoutkit.__file__).parent / "shapes.py"
    offenders = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and _called_name(node) == "isinstance"
        and any(getattr(n, "id", None) == "int" for n in ast.walk(node.args[1]))
    ]
    assert offenders == []


def test_profiles_are_built_only_to_compare_trees():
    # the engine re-nests what it derives with the tree it already holds, so
    # a profile is built only by congruent (and by profile, recursively)
    callers = set()
    for path, tree in _source_trees():
        for name, scope in _scopes(tree):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and _called_name(node) == "profile":
                    callers.add(f"{path.stem}.{name}")
    assert callers == {"shapes.congruent", "shapes.profile"}


def test_every_public_method_of_an_export_is_named_in_a_test():
    # methods and properties of exported classes, as ``.name`` in a test
    tests = Path(__file__).parent
    text = "\n".join(p.read_text() for p in sorted(tests.glob("test_*.py")))
    methods = (property, staticmethod, classmethod)
    untested = [
        f"{cls_name}.{name}"
        for cls_name, cls in vars(layoutkit).items()
        if not cls_name.startswith("_") and inspect.isclass(cls)
        for name, obj in vars(cls).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or isinstance(obj, methods))
        and not re.search(rf"\.{name}\b", text)
    ]
    assert untested == []
