"""Nested tuples, profiles, and colexicographic (un)linearization."""

from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from layoutkit import (
    STAR,
    ArithmeticOverflowError,
    FlatLayout,
    Layout,
    LayoutError,
    NotComposableError,
    NotRefinementError,
    Refinement,
    TupleMorphism,
    colex,
    colex_inv,
    compose_nest,
    concat_nm,
    congruent,
    depth,
    flatten,
    format_nested,
    layout_of,
    length,
    make_composable,
    mutual_refinement,
    nest_morphism,
    prefix_products,
    profile,
    pullback,
    pushforward,
    rank,
    refines,
    relative_modes,
    size,
    substitute,
)
from layoutkit.shapes import _same, _str, checked_add, checked_mul

from generators import nested_tuples, random_tree, seeds


class TestBasics:
    def test_flatten(self):
        assert flatten(((2, 2), 4, (9, (3, 3)))) == (2, 2, 4, 9, 3, 3)
        assert flatten(7) == (7,)
        assert flatten(()) == ()

    def test_profile(self):
        assert profile(((2, 2), 4)) == ((STAR, STAR), STAR)
        assert profile(5) == STAR

    def test_congruent(self):
        assert congruent(((2, 2), 4), ((1, 16), 4))
        assert not congruent(((2, 2), 4), (2, 2, 4))
        assert not congruent(4, (4,))

    def test_length_rank_depth(self):
        x = ((2, 2), 4, (9, (3, 3)))
        assert length(x) == 6
        assert rank(x) == 3
        assert depth(x) == 3
        assert rank(7) == 1
        assert depth(7) == 0
        assert depth(()) == 0
        assert depth((7,)) == 1
        assert length(()) == 0

    def test_size(self):
        assert size((3, 128, 128)) == 49152
        assert size(()) == 1
        assert size(((2, 2), (5, 5))) == 100

    def test_unflatten(self):
        # Rebuilding a nested tuple from flat entries is substitute with
        # integer parts.
        prof = (STAR, (STAR, STAR))
        assert substitute((64, 16, 4), prof) == (64, (16, 4))
        with pytest.raises(LayoutError):
            substitute((64, 16), prof)
        with pytest.raises(LayoutError):
            substitute((64, 16, 4, 2), prof)

    def test_substitute(self):
        assert substitute([64, (16, 4)], (STAR, STAR)) == (64, (16, 4))
        assert substitute([(2, 2)], STAR) == (2, 2)
        with pytest.raises(LayoutError):
            substitute([64], (STAR, STAR))


class TestTreeEquality:
    # _same is == on trees, read on the paired flattening, so two trees built
    # apart compare at any depth: a node is a tuple, anything else a leaf
    def test_nesting_counts(self):
        assert _same(((2, 3), 4), ((2, 3), 4))
        assert not _same(((2, 3), 4), (2, (3, 4)))  # one flattening, nested apart
        assert not _same((2, 3, 4), ((2, 3), 4)) and not _same(2, (2,))
        assert not _same(((2, 3), 4), ((2, 3), 5))
        assert _same((), ()) and _same(((),), ((),))
        assert not _same((), ((),)) and not _same(((),), ((), ()))

    def test_a_list_is_a_leaf(self):
        assert not _same((2, 2), [2, 2]) and not _same([2, 2], (2, 2))
        assert _same([2, 2], [2, 2]) and not _same(((2,), 2), ([2], 2))

    def test_nodes_and_leaves_compare_by_value(self):
        pair = namedtuple("pair", "x y")
        assert _same(pair(2, (3, 4)), (2, (3, 4))) and _same((2, pair(3, 4)), (2, (3, 4)))
        assert not _same(pair(2, (3, 4)), (2, 3, 4))
        assert _same(2, 2.0) and _same((2, (3, 4)), (2.0, (3, 4.0)))

    def test_deep_trees_built_apart(self):
        assert _same(_wrapped(2), _wrapped(2)) and _same(_wrapped((2, 3)), _wrapped((2, 3)))
        assert not _same(_wrapped(2), _wrapped(3)) and not _same(_wrapped(2), _wrapped(2, 9_999))


class TestRefinement:
    def test_refines_examples(self):
        assert refines((2, (2, 2)), 8)
        assert refines(((2, 2), (3, 3), (5, 5)), (4, 9, 25))
        assert not refines((8, 8), (4, 16))
        assert not refines((2, 2), (2, 2, 1))

    def test_a_coarse_leaf_must_be_an_int(self):
        # a coarse leaf that equals its pieces' product only by value is no
        # entry, as Layout refuses it: 4.0, True and a list are refused leaves,
        # and the walk the engine reads on checked trees does not refine them
        for fine, coarse, shown in (((2, 2), 4.0, "4.0"), ((1, 4), (True, 4), "True")):
            for call in (refines, relative_modes):
                with pytest.raises(LayoutError) as refused:
                    call(fine, coarse)
                assert str(refused.value) == f"entry {shown} in {coarse!r} is not an integer"
        with pytest.raises(LayoutError, match=r"^entry \[2, 2\] in \[2, 2\] is not an integer$"):
            refines((2, 2), [2, 2])
        with pytest.raises(NotRefinementError, match=r"^\(2, 2\) does not refine 4\.0$"):
            Layout((2, 2), (1, 2)).coalesce_relative(4.0)

    def test_a_leaf_that_is_not_an_int_is_refused(self):
        # size, refines and relative_modes check every leaf of what they are
        # given, the fine tree's before the coarse one's, where the engine reads
        # checked_prod and _pieces on trees it has checked
        refused = [
            (lambda: size((2, 2.5)), "entry 2.5 in (2, 2.5)"),
            (lambda: size((True, 3)), "entry True in (True, 3)"),
            (lambda: size([2, 3]), "entry [2, 3] in [2, 3]"),
            (lambda: size(((2,), "2")), "entry '2' in ((2,), '2')"),
            (lambda: refines((2, 2.0), 4), "entry 2.0 in (2, 2.0)"),
            (lambda: refines([2, 2], 4), "entry [2, 2] in [2, 2]"),
            (lambda: refines((2, 2.0), 4.0), "entry 2.0 in (2, 2.0)"),
            (lambda: relative_modes([2, 2], 4), "entry [2, 2] in [2, 2]"),
            (lambda: relative_modes(((2, 2), 3), (4, None)), "entry None in (4, None)"),
        ]
        for call, text in refused:
            with pytest.raises(LayoutError) as raised:
                call()
            assert type(raised.value) is LayoutError
            assert str(raised.value) == f"{text} is not an integer"
        assert size((2, (3, 4))) == 24 and refines((2, 2), 4) and relative_modes(2, 2) == [2]

    def test_relative_modes_example(self):
        fine = (((2, 2), (3, 3)), (25, (6, (2, 3))))
        coarse = ((4, 9), (25, 36))
        assert relative_modes(fine, coarse) == [(2, 2), (3, 3), 25, (6, (2, 3))]

    def test_relative_modes_rejects_non_refinement(self):
        with pytest.raises(NotRefinementError):
            relative_modes((8, 8), (4, 16))

    @given(nested_tuples())
    def test_refines_reflexive(self, x):
        assert refines(x, x)

    @given(nested_tuples(), seeds())
    def test_substitute_inverts_relative_modes(self, coarse, rng):
        # refine each entry of ``coarse`` into a random tree of equal size
        parts = []
        for e in flatten(coarse):
            divisor = next(d for d in (2, 3, 5, 7, e, 1) if d and e % max(d, 1) == 0)
            parts.append(random_tree(rng, (divisor, e // divisor)) if e > 1 else e)
        fine = substitute(parts, profile(coarse))
        assert refines(fine, coarse)
        assert substitute(relative_modes(fine, coarse), profile(coarse)) == fine

    @given(nested_tuples(), seeds(), seeds())
    def test_refines_transitive(self, c, rng1, rng2):
        def refine_once(x, rng):
            parts = []
            for e in flatten(x):
                if e > 1 and rng.random() < 0.6:
                    d = next(d for d in (2, 3, 5, 7, e) if e % d == 0)
                    parts.append(random_tree(rng, (d, e // d)))
                else:
                    parts.append(e)
            return substitute(parts, profile(x))

        b = refine_once(c, rng1)
        a = refine_once(b, rng2)
        assert refines(b, c) and refines(a, b) and refines(a, c)


def _wrapped(leaf, n=10_000):
    """``leaf`` inside ``n`` one-tuples: a tree built in code, which no parser
    refuses as too deep."""
    for _ in range(n):
        leaf = (leaf,)
    return leaf


class TestDeepTrees:
    # Every walker keeps its own stack, so a tree nested far beyond the
    # interpreter's recursion limit gets a result or a LayoutError, never a
    # RecursionError.  prefix_products, colex, colex_inv and the checked
    # arithmetic take flat entries, not trees.  Comparing two deep trees
    # with == still recurses in C, so the assertions compare flattenings.
    def test_shapes_functions(self):
        t, u, ones = _wrapped(2), _wrapped(4), _wrapped(1)
        assert flatten(t) == (2,)
        assert flatten(profile(t)) == (STAR,) and depth(profile(t)) == 10_000
        assert congruent(t, u) and not congruent(t, _wrapped(2, 9_999))
        assert (length(t), rank(t), depth(t), size(t)) == (1, 1, 10_000, 2)
        assert format_nested(t) == "(" * 10_000 + "2" + ")" * 10_000
        assert flatten(substitute([3], t)) == (3,) and depth(substitute([3], t)) == 10_000
        with pytest.raises(LayoutError, match="needs 1 parts"):
            substitute([3, 4], t)
        assert refines(t, t) and refines(t, 2) and refines(ones, u) is False
        assert refines(2, t) is False and refines(t, ones) is False
        assert relative_modes(t, t) == [2] and relative_modes(t, 2)[0] is t
        with pytest.raises(NotRefinementError) as refused:
            relative_modes(t, 4)
        assert str(refused.value) == "(" * 10_000 + "2" + ",)" * 10_000 + " does not refine 4"

    def test_layouts(self):
        t, ones = _wrapped(2), _wrapped(1)
        a = Layout(t, ones)
        assert _same(a.stride, ones) and depth(a.stride) == 10_000  # nested on the read
        assert str(a) == format_nested(t) + ":" + format_nested(ones)
        assert (a.size(), a.cosize(), a.depth(), a(1), a.is_tractable()) == (2, 2, 10_000, 1, True)
        assert a.flat() == FlatLayout((2,), (1,)) and a.coalesce() == Layout(2, 1)
        for got in (a.compose(Layout(4, 1)), a.coalesce_relative(t)):
            assert flatten(got.shape) == (2,) and depth(got.shape) == 10_000
        assert Layout(2, 1).compose(a) == a.coalesce_relative(2) == Layout(2, 1)
        assert str(a.complement(4)) == "2:2"
        assert Layout(2, 1).logical_divide(a).flat() == FlatLayout((2, 1), (1, 0))
        assert a.logical_product(Layout(2, 1)).flat() == FlatLayout((2, 2), (1, 2))
        with pytest.raises(NotComposableError, match="cosize 4"):
            Layout(4, 1).compose(a)
        with pytest.raises(NotRefinementError) as refused:
            a.coalesce_relative(4)
        assert str(refused.value) == "(" * 10_000 + "2" + ",)" * 10_000 + " does not refine 4"
        with pytest.raises(LayoutError) as refused:
            Layout(t, 1)
        assert str(refused.value) == f"shape {'(' * 10_000}2{',)' * 10_000} and stride 1 are not congruent"
        with pytest.raises(LayoutError, match="is not an integer"):
            FlatLayout(t, t)

    def test_morphisms_and_refinements(self):
        t, u, zero = _wrapped(2), _wrapped(4), _wrapped(0)
        assert str(nest_morphism(t, (2,), (1,))).endswith("2" + ")" * 10_000 + "--(1)-->(2)")
        assert not nest_morphism((2,), t, (1,)).is_standard_form()
        with pytest.raises(LayoutError, match="entry mismatch"):
            nest_morphism(t, (4,), (1,))
        assert flatten(Refinement(t, 2).fine) == (2,)
        with pytest.raises(NotRefinementError, match="does not refine 4$"):
            Refinement(t, 4)
        with pytest.raises(LayoutError, match="non-positive entry"):
            Refinement(zero, zero)
        # the refusal writes the refinement on a stack, as repr writes a shallow one
        with pytest.raises(LayoutError) as refused:
            Refinement(_wrapped("a"), 2)
        shown = "(" * 10_000 + "'a'" + ",)" * 10_000
        assert str(refused.value) == f"entry 'a' in Refinement(fine={shown}, coarse=2) is not an integer"
        with pytest.raises(LayoutError) as refused:
            Refinement(("a",), 2)
        assert str(refused.value) == "entry 'a' in Refinement(fine=('a',), coarse=2) is not an integer"
        mr = mutual_refinement(t, u)
        assert (flatten(mr.t_ref.fine), flatten(mr.u_ref.fine)) == ((2,), (2, 2))
        assert mutual_refinement(t, 3) is None
        with pytest.raises(LayoutError, match="non-positive entry"):
            mutual_refinement(zero, 2)

    def test_reprs(self):
        # repr writes each tree on the text walk's stack, as the built-in
        # writes a shallow one, and str of a refinement falls back to it
        t, ones = _wrapped(2), _wrapped(1)
        two, one = "(" * 10_000 + "2" + ",)" * 10_000, "(" * 10_000 + "1" + ",)" * 10_000
        a = Layout(t, ones)
        assert repr(a) == f"Layout(shape={two}, stride={one})"
        assert str(a) == format_nested(t) + ":" + format_nested(ones)
        f = nest_morphism(t, (2,), (1,))
        fmap = "TupleMorphism(domain=(2,), codomain=(2,), amap=(1,))"
        assert repr(f) == f"NestMorphism(domain={two}, codomain=(2,), fmap={fmap})"
        assert str(f) == format_nested(t) + "--(1)-->(2)"
        r = Refinement(t, 2)
        assert repr(r) == str(r) == f"Refinement(fine={two}, coarse=2)"
        mr = mutual_refinement(t, t)
        shown = f"Refinement(fine={two}, coarse={two})"
        assert repr(mr) == str(mr) == f"MutualRefinement(t_ref={shown}, u_ref={shown})"

    @given(nested_tuples(), seeds())
    def test_reprs_are_the_built_in_form(self, x, rng):
        stride = substitute([rng.randrange(9) for _ in range(length(x))], x)
        assert repr(Layout(x, stride)) == f"Layout(shape={x!r}, stride={stride!r})"
        f = nest_morphism(x, flatten(x), range(1, length(x) + 1))
        fmap = f"TupleMorphism(domain={flatten(x)!r}, codomain={flatten(x)!r}, amap={f.fmap.amap!r})"
        assert repr(f) == f"NestMorphism(domain={x!r}, codomain={flatten(x)!r}, fmap={fmap})"
        mr = mutual_refinement(x, x)
        t, u = (f"Refinement(fine={r.fine!r}, coarse={r.coarse!r})" for r in (mr.t_ref, mr.u_ref))
        assert repr(mr.t_ref) == str(mr.t_ref) == t
        assert repr(mr) == f"MutualRefinement(t_ref={t}, u_ref={u})"

    def test_nest_category_operations(self):
        # pullback, pushforward, make_composable and concat_nm compare two
        # trees built apart on the paired walk, where == would recurse
        t, t2, short = _wrapped(2), _wrapped(2), _wrapped(2, 9_999)
        f, h = nest_morphism((2,), t, (1,)), nest_morphism(t, (2,), (1,))
        pulled, _ = pullback(f, Refinement(t2, t2))
        pushed, _ = pushforward(h, Refinement(t2, t2))
        assert depth(pulled.codomain) == depth(pushed.domain) == 10_000
        f2, h2 = make_composable(f, h, mutual_refinement(_wrapped(2), _wrapped(2)))
        assert compose_nest(f2, h2).realize() == [0, 1]
        pair = [nest_morphism(2, _wrapped((2, 2)), (j,)) for j in (1, 2)]
        assert str(concat_nm(pair).fmap) == "(2,2)--(1,2)-->(2,2)"
        shown = "(" * 9_999 + "2" + ",)" * 9_999
        with pytest.raises(LayoutError) as refused:
            pullback(f, Refinement(short, short))
        assert str(refused.value) == f"{shown} is not the codomain of {f}"
        with pytest.raises(LayoutError) as refused:
            pushforward(h, Refinement(short, short))
        assert str(refused.value) == f"{shown} is not the domain of {h}"
        with pytest.raises(LayoutError, match="does not lie over"):
            make_composable(f, h, mutual_refinement(_wrapped(2), short))
        with pytest.raises(LayoutError, match="requires a common codomain"):
            concat_nm([pair[0], nest_morphism(2, _wrapped((2, 2), 9_999), (2,))])

    def test_deep_lists_are_refused_as_entries(self):
        # a list is a leaf to every walker, so a deep one is a refused entry,
        # written on the text walk's stack as repr writes a shallow one
        x = 2
        for _ in range(100_000):
            x = [x]
        shown = "[" * 100_000 + "2" + "]" * 100_000
        for build in (lambda: FlatLayout((x,), (1,)), lambda: Layout(x, 1), lambda: Layout((x,), (1,))):
            with pytest.raises(LayoutError) as refused:
                build()
            assert str(refused.value) == f"shape entry {shown} in ({shown},) is not an integer"
        for build, message in (  # a shallow list is written as the built-in writes it
            (lambda: Layout(([[[2]]],), (1,)), "shape entry [[[2]]] in ([[[2]]],)"),
            (lambda: Refinement([2, 2], 4), "entry [2, 2] in Refinement(fine=[2, 2], coarse=4)"),
            (lambda: mutual_refinement([2], (2,)), "entry [2] in [2]"),
        ):
            with pytest.raises(LayoutError) as refused:
                build()
            assert str(refused.value) == message + " is not an integer"
        looped = []
        looped.append(looped)
        with pytest.raises(LayoutError) as refused:
            Layout((looped, 2), (1, 2))
        assert str(refused.value) == "shape entry [[...]] in ([[...]], 2) is not an integer"

    def test_deep_lists_in_a_morphism_and_in_text(self):
        # the entry mismatch and format_nested write a list on the text walk's
        # stack too, as str writes a shallow one: its items joined by ", "
        x = 2
        for _ in range(100_000):
            x = [x]
        shown = "[" * 100_000 + "2" + "]" * 100_000
        for build in (TupleMorphism, nest_morphism):
            with pytest.raises(LayoutError) as refused:
                build((x,), (2,), (1,))
            assert str(refused.value) == f"entry mismatch: domain[0]={shown} but codomain[0]=2"
        with pytest.raises(LayoutError) as refused:
            TupleMorphism(((1, 2),), ([1, (3,)],), (1,))
        assert str(refused.value) == "entry mismatch: domain[0]=(1, 2) but codomain[0]=[1, (3,)]"
        assert format_nested((x,)) == f"({shown})"
        assert format_nested(([1, 2], 3)) == "([1, 2],3)"
        assert format_nested(([(1,), "a"], (4,))) == "([(1,), 'a'],(4))"

    @given(nested_tuples())
    def test_messages_show_a_tree_as_str_does(self, x):
        # a refusal names a tree as f"{tree}" and f"{tree!r}" do, without the
        # built-ins' recursion
        for tree in (x, (x,), ("a", (2.5, None, True)), (), ((),), "a", 3, [x, [(x,)]], [], [[]]):
            assert _str(tree) == str(tree)
            if type(tree) is not int:
                with pytest.raises(LayoutError) as refused:
                    FlatLayout((1, tree), (0, 0))
                assert str(refused.value) == f"shape entry {tree!r} in {(1, tree)} is not an integer"


class TestColex:
    def test_examples(self):
        assert colex((2, 3), (1, 2)) == 5
        assert colex_inv((4, 2, 2), 7) == (3, 1, 0)
        assert colex((), ()) == 0
        assert colex_inv((), 0) == ()

    def test_out_of_range(self):
        with pytest.raises(LayoutError):
            colex((2, 3), (2, 0))
        with pytest.raises(LayoutError, match=r"coordinate rank 1 != 2"):
            colex((2, 3), (0,))
        with pytest.raises(LayoutError):
            colex_inv((2, 3), 6)

    def test_prefix_products(self):
        assert prefix_products((3, 2, 128)) == (1, 3, 6, 768)
        assert prefix_products(()) == (1,)

    @given(seeds(), st.integers(0, 10**6))
    def test_round_trip(self, rng, raw):
        shape = tuple(rng.choice([1, 2, 3, 4, 5]) for _ in range(rng.randrange(0, 5)))
        total = size(shape)
        x = raw % total
        assert colex(shape, colex_inv(shape, x)) == x

    @given(seeds())
    def test_first_axis_fastest(self, rng):
        shape = (rng.choice([2, 3, 4]),) + tuple(
            rng.choice([2, 3]) for _ in range(rng.randrange(0, 3))
        )
        # advancing the first coordinate advances the linear index by one
        assert colex(shape, (1,) + (0,) * (len(shape) - 1)) == 1


class TestCheckedArithmetic:
    def test_overflow(self):
        with pytest.raises(ArithmeticOverflowError):
            checked_mul(2**62, 4)
        with pytest.raises(ArithmeticOverflowError):
            checked_add(2**63 - 1, 1)
        assert checked_mul(2**31, 2**31) == 2**62
        # a product or sum taken at once names the first partial out of range,
        # as one taken step by step does, a 0 after it included
        e = 2**62
        refused = [
            (lambda: size((e, 4)), f"{e} * 4"),
            (lambda: size((e, 4, 0)), f"{e} * 4"),
            (lambda: Layout((e, 4), (1, 0)).size(), f"{e} * 4"),
            (lambda: FlatLayout((2, e, 4), (1, 0, 0)).size(), f"2 * {e}"),
            (lambda: Layout((e, 4), (2, 1)).cosize(), f"{2**63 - 1} + 3"),
            (lambda: FlatLayout((e,), (4,)).cosize(), f"{e - 1} * 4"),
            (lambda: Layout((4, e), (2**61, 2))(e + 3), f"{3 * 2**61} + {2**61}"),
            (lambda: Layout((4, e), (2**61, 2)).eval_coord((3, e - 1)), f"{3 * 2**61} + {2**63 - 2}"),
            (lambda: layout_of(TupleMorphism((2, e), (e, 4, 2), (3, 1))), f"{e} * 4"),
            (lambda: prefix_products((e, 4, 0)), f"{e} * 4"),
            (lambda: prefix_products((1, 2**63)), f"1 * {2**63}"),
            # a refinement's products are checked where they are taken, not
            # read as a refusal
            (lambda: refines((e, 4), 8), f"{e} * 4"),
            (lambda: relative_modes((e, 4), 8), f"{e} * 4"),
            (lambda: Refinement((e, 4), 8), f"{e} * 4"),
            (lambda: Layout((e, 4), (1, 1)).coalesce_relative(8), f"{e} * 4"),
        ]
        for call, text in refused:
            with pytest.raises(ArithmeticOverflowError) as raised:
                call()
            assert str(raised.value) == f"64-bit overflow in {text}"
        assert size((e, 1, 0)) == 0 and prefix_products((e, 0, 4)) == (1, e, 0, 0)
        assert prefix_products((2, 0.5)) == (1, 2, 1.0)  # the engine's entries are checked
        with pytest.raises(LayoutError, match="^entry 2.0 in"):
            size((2.0, 3))
