"""Package structure: every import sits at module level, so the import
graph of ``layoutkit`` is visible and acyclic; recursion runs one frame per
level and leaves no reference cycles; every export is tested, and the
equivalence gate's corpus calls every export and every CLI verb."""

import ast
import copy
import importlib.util
import inspect
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layoutkit
from layoutkit.cli import _VERBS
from layoutkit.nestcat import _composite

from generators import random_layout

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


def test_both_layout_classes_answer_through_flat():
    # a nested layout computes the function of its flattening: each question
    # about that function is written once, on the flat form, in their base
    shared = {"size", "cosize", "eval_coord", "__call__", "is_tractable", "__str__"}
    base = layoutkit.FlatLayout.__mro__[1]
    assert layoutkit.Layout.__mro__[1] is base
    assert shared <= set(vars(base))
    assert shared.isdisjoint(vars(layoutkit.FlatLayout))
    assert shared.isdisjoint(vars(layoutkit.Layout))


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
    # a Layout checks its entries by building its flat form, where they enter
    boundary = {"identity", "nest_morphism", "Layout.__init__"}
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


def _reached(scopes, roots, classes=("Layout",)):
    """The scopes reached from ``roots`` through calls: a function by its
    name, a method of any of ``classes`` by its attribute."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(scopes[name]):
            if isinstance(node, ast.Call):
                called = _called_name(node)
                names = [called] + [f"{c}.{called}" for c in classes]
                todo += [n for n in names if n in scopes]
    return reached


def _module_scopes(stem):
    path = Path(layoutkit.__file__).parent / f"{stem}.py"
    return dict(_scopes(ast.parse(path.read_text())))


def test_layout_operations_run_on_tuple_morphisms():
    # a layout operation runs on tuple morphisms and nests its result once:
    # compose_tractable, every Layout method and whatever they reach build no
    # Nest-category object, directly or through _unchecked, and call none of
    # the Nest-category operations
    nest = {"NestMorphism", "Refinement", "MutualRefinement"}
    nest |= {"mutual_refinement", "make_composable", "pullback", "pushforward"}
    nest |= {"compose_nest", "layout_of_nested"}
    scopes = _module_scopes("nestcat")
    roots = ["compose_tractable", "_composite"]
    roots += [name for name in scopes if name.startswith("Layout.")]
    reached = _reached(scopes, roots)
    # compose cuts only its first operand's map and reads the second's strides
    # off its coalesce, so the second's transport (_onto) is not reached
    assert {"_refine", "_cut"} <= reached and "_onto" not in reached
    offenders = sorted(
        f"{name}: {node.id}"
        for name in reached
        for node in ast.walk(scopes[name])
        if isinstance(node, ast.Name) and node.id in nest
    )
    assert offenders == []


def test_the_transport_is_written_once():
    # one flat helper writes the transport's index map and one computes the
    # greedy pieces; the Nest-category operations and compose reach them, and
    # only the public transport wraps the cut map in a tuple morphism
    scopes = _module_scopes("nestcat")
    for root in ("pullback", "pushforward", "compose_tractable", "_composite"):
        assert "_cut" in _reached(scopes, [root])
        assert ("_cut_m" in _reached(scopes, [root])) == (root in ("pullback", "pushforward"))
    for root in ("mutual_refinement", "compose_tractable", "_composite"):
        assert "_refine" in _reached(scopes, [root])
    builders = {
        name
        for name, scope in scopes.items()
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and _called_name(node) == "_unchecked"
        and getattr(node.args[0], "id", None) == "TupleMorphism"
    }
    # make_composable only retargets the refined f, keeping its map
    assert builders == {"_cut_m", "make_composable"}


def test_an_operation_builds_few_engine_objects():
    # compose, divide, product and the complement read standard
    # representations, coalesces, complements and index maps as tuples and
    # lists: each _unchecked call is one engine object, and none is a tuple
    # morphism.  Past the result's flat form and Layout, divide builds its
    # flat operand (tiler, complement), and product the complement and its
    # part of the result
    tuplecat, Layout = layoutkit.tuplecat, layoutkit.Layout
    a, b = Layout(((4, 4), 4), ((16, 1), 4)), Layout((8, 64), (64, 1))
    m, tiler = Layout((64, 32), (32, 1)), Layout((4, 4), (1, 64))
    p, q = Layout((2, 2), (1, 2)), Layout((5, 5), (5, 1))
    c = Layout(((16, 4), 64), ((1, 16), 64))
    ops = {
        "compose": (lambda: a.compose(b), 2),
        "logical_divide": (lambda: m.logical_divide(tiler), 3),
        "logical_product": (lambda: p.logical_product(q), 4),
        "complement": (lambda: c.complement(8192), 2),
    }
    for name, (op, most) in ops.items():
        built = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is tuplecat._unchecked.__code__:
                built.append((frame.f_locals["cls"].__name__, frame.f_back.f_code.co_name))

        sys.setprofile(profiler)
        try:
            op()
        finally:
            sys.setprofile(None)
        assert [cls for cls, _ in built] == ["FlatLayout"] * (most - 1) + ["Layout"], (name, built)


def test_the_bijection_is_read_off_a_bit_set():
    # _onto sets one bit a point in one int, mode by mode: it unpacks no
    # table into words and counts no set of them
    called = {
        _called_name(node)
        for node in ast.walk(_module_scopes("oracle")["_onto"])
        if isinstance(node, ast.Call)
    }
    assert called.isdisjoint({"_words", "_packed", "set"})


def test_compose_is_checked_by_a_gather_or_point_by_point():
    # check_compose packs and reads tables, else calls the layouts themselves:
    # the oracle has no evaluator of its own to reach
    scopes = _module_scopes("oracle")
    assert "_evaluate" not in scopes
    reached = _reached(scopes, ["check_compose"])
    assert reached == {
        "check_compose", "_packed", "_table", "_native", "_words", "_largest", "_within"
    }


def test_divide_and_product_build_no_intermediate_layouts():
    # divide and product compose flat forms and nest once: over the worked
    # examples and seeded pairs, refusals included, nothing they run enters
    # Layout.compose, Layout.complement, Layout.of_flat or concat_layouts
    Layout = layoutkit.Layout
    barred = {Layout.compose, Layout.complement, Layout.of_flat, layoutkit.concat_layouts}
    barred = {f.__code__: f.__qualname__ for f in barred}
    pairs = [
        (Layout((64, 32), (32, 1)), Layout((4, 4), (1, 64))),
        (Layout((2, 2), (1, 2)), Layout((5, 5), (5, 1))),
        (Layout(16, 1), Layout((4, 4), (1, 4))),
    ]
    for seed in range(200):
        rng = random.Random(seed)
        pairs.append((random_layout(rng), random_layout(rng)))
    entered = set()

    def profiler(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profiler)
    try:
        for a, b in pairs:
            for op in (Layout.logical_divide, Layout.logical_product):
                try:
                    op(a, b)
                except layoutkit.LayoutError:
                    pass
    finally:
        sys.setprofile(None)
    assert _composite.__code__ in entered
    assert sorted(barred[c] for c in entered if c in barred) == []


def test_operations_on_built_layouts_flatten_nothing():
    # a layout keeps the flat form it is built with and the engine passes on
    # the one it holds: on the README operands, built beforehand, compose,
    # divide, product, complement and coalesce enter flatten 0 times
    Layout = layoutkit.Layout
    a, b = Layout(((4, 4), 4), ((16, 1), 4)), Layout((8, 64), (64, 1))
    m, tiler = Layout((64, 32), (32, 1)), Layout((4, 4), (1, 64))
    p, q = Layout((2, 2), (1, 2)), Layout((5, 5), (5, 1))
    c = Layout(((16, 4), 64), ((1, 16), 64))
    ops = {
        "compose": lambda: a.compose(b),
        "logical_divide": lambda: m.logical_divide(tiler),
        "logical_product": lambda: p.logical_product(q),
        "complement": lambda: c.complement(8192),
        "coalesce": lambda: a.coalesce(),
    }
    counts = dict.fromkeys(ops, 0)
    for name, op in ops.items():

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is layoutkit.flatten.__code__:
                counts[name] += 1

        sys.setprofile(profiler)
        try:
            op()
        finally:
            sys.setprofile(None)
    assert counts == dict.fromkeys(ops, 0)


def test_coalesce_relative_flattens_each_group_once():
    # the refinement's one paired walk flattens each sub-tree over an entry
    # of shape_bar once, for its check and its pieces both (_pieces walks on
    # its own stack, so each call event of flatten is one flattening)
    a = layoutkit.Layout(((2, 2), (3, 3), (5, 5)), ((1, 2), (4, 12), (36, 180)))
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is layoutkit.flatten.__code__:
            count += 1

    sys.setprofile(profiler)
    try:
        a.coalesce_relative(((2, 2), 9, 25))
    finally:
        sys.setprofile(None)
    assert count == 4


def test_a_layout_holds_its_nesting_once():
    # a Layout holds the shape tree and the flat form, and nests its stride
    # from them on each read; the engine builds a Layout from (shape, flat)
    # alone, so an operation nests its result's shape once, or not at all:
    # compose, divide, product and coalesce_relative keep the tree that nests
    # the result where no leaf is cut into modes that stay apart (here only
    # compose cuts one, its third)
    Layout, shapes = layoutkit.Layout, layoutkit.shapes
    trees = [
        (((4, 4), 4), ((16, 1), 4)), ((8, 64), (64, 1)), ((64, 32), (32, 1)),
        ((4, 4), (1, 64)), ((2, 2), (1, 2)), ((5, 5), (5, 1)),
        (((2, 2), (3, 3), (5, 5)), ((1, 2), (4, 12), (36, 180))),
    ]
    layouts = [Layout(s, d) for s, d in trees]
    assert [x.stride for x in layouts] == [d for _, d in trees]
    a, b, m, tiler, p, q, r = layouts
    f = layoutkit.standard_representation_nested(a)
    ops = {
        "compose": (lambda: a.compose(b), 1),
        "logical_divide": (lambda: m.logical_divide(tiler), 0),
        "logical_product": (lambda: p.logical_product(q), 0),
        "coalesce_relative": (lambda: r.coalesce_relative(((2, 2), 9, 25)), 0),
        "compose_tractable": (lambda: layoutkit.compose_tractable(a, b), 1),
        "substitute_profile": (lambda: layoutkit.substitute_profile(a, (("*", "*"), "*")), 1),
        "column_major_layout": (lambda: layoutkit.column_major_layout(((4, 4), 4)), 0),
        "layout_of_nested": (lambda: layoutkit.layout_of_nested(f), 0),
    }
    counts, results = dict.fromkeys(ops, 0), list(layouts)
    for name, (op, _) in ops.items():

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code is shapes._substitute.__code__:
                counts[name] += 1

        sys.setprofile(profiler)
        try:
            results.append(op())
        finally:
            sys.setprofile(None)
    assert counts == {name: n for name, (_, n) in ops.items()}
    assert Layout.__slots__ == ("shape", "_flat")
    assert not any(hasattr(x, "__dict__") for x in results)
    calls = [
        node
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "_unchecked"
        and getattr(node.args[0], "id", None) == "Layout"
    ]
    assert calls and all(
        len(c.args) == 3 or len(c.args) == 2 and isinstance(c.args[1], ast.Starred) for c in calls
    )


def test_a_refinement_is_read_once():
    # whether a tree refines another, its refusal and each entry's flat
    # pieces come from shapes._pieces: it alone builds NotRefinementError,
    # and no second transport walks the trees again
    builders = set()
    for path, tree in _source_trees():
        assert "_transport" not in path.read_text()
        for name, scope in _scopes(tree):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and _called_name(node) == "NotRefinementError":
                    builders.add(f"{path.stem}.{name}")
    assert builders == {"shapes._pieces"}


def test_shapes_has_one_stack_walker_per_job():
    # flatten, the paired flattening (which tree equality reads too), the
    # refinement's paired walk, the build walk (which depth reads off too) and
    # the text walk: nothing else loops on a stack of its own
    walkers = {
        name
        for name, scope in _module_scopes("shapes").items()
        if any(isinstance(node, ast.While) for node in ast.walk(scope))
    }
    assert walkers == {"flatten", "_flat_pair", "_pieces", "_substitute", "_text"}


def test_no_function_is_a_generator():
    # a generator's resumes are call events under sys.setprofile, as calls
    # are: with none in the package, one profile hook counts calls alone
    offenders = [
        f"{path.name}:{node.lineno}"
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Yield, ast.YieldFrom))
    ]
    assert offenders == []


def test_the_complement_is_read_off_the_walk():
    # FlatLayout.complement builds neither the complement's morphism nor
    # its layout: every call it makes, to any function or method of the
    # Tuple category, reaches neither complement_m nor layout_of
    classes = ("FlatLayout", "TupleMorphism", "_LayoutFunction")
    reached = _reached(_module_scopes("tuplecat"), ["FlatLayout.complement"], classes)
    assert {"_complement", "_standard", "_coalesce_modes"} <= reached
    assert reached.isdisjoint({"complement_m", "layout_of"})


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
    # the engine re-nests what it derives with the tree it already holds, and
    # congruent walks both trees in step, so the engine builds no profile
    callers = set()
    for path, tree in _source_trees():
        for name, scope in _scopes(tree):
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and _called_name(node) == "profile":
                    callers.add(f"{path.stem}.{name}")
    assert callers == set()


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


def _corpus_names(calls):
    """The names a differential corpus calls, and the CLI verbs it runs (a
    check as ``check`` and as ``check <target>``)."""
    names, verbs = set(), set()
    for target, args in calls:
        if target == "cli":
            argv = [a for a in args[0] if a != "--json"]
            verbs.update([" ".join(argv[:1]), " ".join(argv[:2])])
            continue
        specs = [(target, *args)]
        while specs:
            tag, *parts = specs.pop()
            if tag not in ("=", "deep"):
                names.add(tag)
                specs += parts
    return names, verbs


def _differential():
    path = Path(__file__).parent.parent / "tools" / "differential.py"
    spec = importlib.util.spec_from_file_location("differential", path)
    differential = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(differential)
    return differential


def test_differential_corpus_names_every_export_and_verb():
    # tools/differential.py runs one corpus against two source trees; its
    # smallest corpus, built but not run, already calls every export (a
    # class through a method, a value by reading it), every public method
    # of an exported class and every verb
    differential = _differential()
    names, verbs = _corpus_names(differential.build_corpus(rounds=2, cli_seeds=1))
    exports = {
        name: obj
        for name, obj in vars(layoutkit).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    uncalled = [
        name
        for name in exports
        if name not in names and not any(n.startswith(name + ".") for n in names)
    ]
    assert uncalled == []
    methods = [
        f"{name}.{attr}"
        for name, obj in exports.items()
        if inspect.isclass(obj) and not issubclass(obj, Exception)
        for attr in dir(obj)
        if not attr.startswith("_")
    ]
    assert [m for m in methods if m not in names] == []
    assert set(_VERBS) <= verbs


def test_differential_writes_deep_values_whole():
    # an outcome too deep for repr is written on the tool's own stack, so
    # two different 1,000-deep tuples are two outcomes, not one marker
    differential = _differential()
    for value in [(), (1,), ((),), [1, (2,), [], "a"], ((1, 2), (3,), [((),)]), 5, None]:
        assert differential._deep_repr(value) == repr(value)
    deep = {}
    for leaf in (0, 1):
        deep[leaf] = leaf
        for _ in range(max(1000, sys.getrecursionlimit())):
            deep[leaf] = (deep[leaf],)
    texts = [differential._text(v) for v in deep.values()]
    assert texts[0] != texts[1]
    assert all(t.startswith("(" * differential.KEEP) and "...#" in t for t in texts)


def _records():
    """One value of each record class, each built by its checked constructor."""
    lk = layoutkit
    t = lk.TupleMorphism((2, 4), (4, 2), (2, 1))
    return [
        lk.FlatLayout((2, 4), (4, 1)),
        t,
        lk.NestMorphism(((2,), 4), (4, 2), t),
        lk.Refinement(((2, 2), 4), (4, 4)),
        lk.MutualRefinement(lk.Refinement((2, 2), 4), lk.Refinement(((2, 2), 3), (4, 3))),
        lk.Layout(((2, 2), 4), ((1, 2), 4)),
        lk.FunctionTable((0, 2, 1, 3)),
    ]


def test_every_record_is_a_slotted_value():
    # the engine's value classes share one base: fields named by __slots__,
    # set once, compared and hashed as the tuple of them within one class,
    # and rebuilt by copy and pickle as equal values
    records = _records()
    assert [type(x).__name__ for x in records] == [
        "FlatLayout", "TupleMorphism", "NestMorphism", "Refinement", "MutualRefinement",
        "Layout", "FunctionTable",
    ]
    for x in records:
        cls = type(x)
        names = ("shape", "stride") if cls is layoutkit.Layout else cls.__slots__
        fields = {name: getattr(x, name) for name in names}
        assert hash(x) == hash(tuple(getattr(x, name) for name in cls.__slots__))
        rebuilt = [cls(*fields.values()), cls(**fields), copy.copy(x), copy.deepcopy(x)]
        for y in rebuilt + [pickle.loads(pickle.dumps(x))]:
            assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == repr(x)
        assert not hasattr(x, "__dict__")
        for name in cls.__slots__ + ("other",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert [getattr(x, name) for name in names] == list(fields.values())
    flat = records[0]
    assert layoutkit.Layout.of_flat(flat) != flat and flat != layoutkit.Layout.of_flat(flat)
    assert flat != (flat.shape, flat.stride) and records[-1] != records[-1].values


def test_a_cli_spawn_imports_no_dataclasses():
    # no module imports dataclasses, which would load inspect, ast, dis and
    # tokenize into every CLI spawn; the engine takes prefix products of
    # entries it has checked, and leaves the checked public function to callers
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in [a.name for a in node.names], path.name
            if isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            if isinstance(node, ast.Call):
                assert _called_name(node) != "prefix_products", f"{path.name}:{node.lineno}"
    env = dict(os.environ, PYTHONPATH=str(Path(layoutkit.__file__).parents[1]))
    code = "import sys, layoutkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    )
    assert done.stdout == "[]\n"
