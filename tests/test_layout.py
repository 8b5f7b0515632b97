"""Nested layouts: coalescing, complements, composition, division, product."""

import copy
import dataclasses
import gc
import pickle
import random
from functools import partial

import pytest
from hypothesis import given, settings

from layoutkit import (
    ArithmeticOverflowError,
    FlatLayout,
    Layout,
    LayoutError,
    NestMorphism,
    NotComplementableError,
    NotComposableError,
    Refinement,
    TupleMorphism,
    check_complement,
    check_compose,
    column_major_layout,
    compose_nest,
    compose_tractable,
    concat_layouts,
    layout_of_nested,
    make_composable,
    mutual_refinement,
    nest_morphism,
    pullback,
    pushforward,
    size,
    standard_representation_nested,
    substitute_profile,
    table_of,
)
from layoutkit.shapes import STAR, flatten, refines

from generators import random_layout, seeds, tractable_layouts


class TestConstruction:
    def test_incongruent(self):
        with pytest.raises(LayoutError):
            Layout((2, 2), (1, (2, 1)))
        with pytest.raises(LayoutError):
            Layout(2, (2,))

    @pytest.mark.parametrize(
        "shape, stride",
        [((0,), (1,)), ((2, (3, 0)), (1, (2, 6))), ((2,), (-1,))],
        ids=["zero-shape", "nested-zero-shape", "negative-stride"],
    )
    def test_range_checked(self, shape, stride):
        with pytest.raises(LayoutError):
            Layout(shape, stride)

    def test_entry_beyond_64_bits_refused(self):
        with pytest.raises(ArithmeticOverflowError):
            Layout((2**63,), (1,))

    # every entry point refuses an entry that is no int before it does
    # arithmetic on it: a float, a bool, a string or a list (each a leaf, as
    # anything but a tuple is)
    @pytest.mark.parametrize(
        "build",
        [
            lambda: FlatLayout((2.5,), (1,)),
            lambda: Layout(4, 1).complement(16.0),
            lambda: Layout(True, 1),
            lambda: Layout("4", 1),
            lambda: Layout([2, 2], [1, 2]),
            lambda: TupleMorphism((2,), (2,), (1.0,)),
            lambda: nest_morphism((2,), (2.0,), (1,)),
            lambda: NestMorphism((2.0,), (2,), TupleMorphism((2,), (2,), (1,))),
            lambda: Refinement((2, 2), 4.0),
            lambda: Refinement(("2", 2), 4),
            lambda: mutual_refinement((4.0,), (4,)),
        ],
        ids=[
            "flat-float", "complement-size-float", "bool", "string", "list",
            "map-float", "nest-morphism", "NestMorphism", "refinement-coarse",
            "refinement-fine", "mutual-refinement",
        ],
    )
    def test_non_integer_entry_refused(self, build):
        with pytest.raises(LayoutError, match="is not an integer"):
            build()

    def test_non_integer_size_is_not_complementable(self):
        assert Layout(4, 1).is_n_complementable(16)
        assert not Layout(4, 1).is_n_complementable(16.0)

    def test_of_flat_and_attributes(self):
        l = Layout(((4, 4), 4), ((16, 1), 4))
        assert l.flat().shape == (4, 4, 4)
        assert l.size() == 64
        assert l.cosize() == 64
        assert l.length() == 3
        assert l.rank() == 2
        assert l.depth() == 2
        assert l.complexity() == 5
        assert Layout(100, 2).depth() == 0
        assert Layout(100, 2)(3) == 6
        # a flat layout given in lists is kept as tuples, as the trees are
        w = Layout.of_flat(FlatLayout([4, 2], [2, 8]))
        assert w == Layout((4, 2), (2, 8)) and w.flat() == FlatLayout((4, 2), (2, 8))
        assert w.cosize() == 15 and w.flat().shape is w.shape

    def test_value_semantics(self):
        # a layout holds its shape and flat form and nests its stride on a
        # read: text, equality, hashing, copies and pickles are those of
        # the two trees
        l = Layout(((4, 4), 4), ((16, 1), 4))
        assert repr(l) == "Layout(shape=((4, 4), 4), stride=((16, 1), 4))"
        assert (str(l), str(Layout(4, 1)), str(Layout((), ()))) == ("((4,4),4):((16,1),4)", "4:1", "():()")
        for x in (copy.deepcopy(l), pickle.loads(pickle.dumps(l)), Layout(shape=l.shape, stride=l.stride)):
            assert x == l and hash(x) == hash(l) and repr(x) == repr(l) and x.flat() == l.flat()
        assert l != Layout(((4, 4), 4), ((16, 1), 8)) and l != Layout((4, 4, 4), (16, 1, 4))
        assert Layout((2,), (1,)) != Layout(2, 1) and len({Layout(4, 1), Layout(4, 1), Layout(4, 2)}) == 2

    def test_concat(self):
        assert concat_layouts(
            [Layout(3, 4), Layout(2, 2), Layout(5, 1)]
        ) == Layout((3, 2, 5), (4, 2, 1))

    def test_substitute_profile(self):
        assert substitute_profile(
            Layout((8, 8, 8), (1, 8, 64)), (STAR, (STAR, STAR))
        ) == Layout((8, (8, 8)), (1, (8, 64)))

    def test_column_major(self):
        l = column_major_layout(((2, 3), (4, 5)))
        assert l == Layout(((2, 3), (4, 5)), ((1, 2), (6, 24)))
        assert l.is_compact()
        assert column_major_layout(7) == Layout(7, 1)

    def test_column_major_takes_no_product_of_the_whole_shape(self):
        assert column_major_layout((4, 2**61)) == Layout((4, 2**61), (1, 4))

    def test_flatten(self):
        l = Layout(((2, 2, 2, (2, 2)),), ((1, 0, 8, (0, 16)),))
        assert l.flat().shape == (2, 2, 2, 2, 2)
        assert l.flat().stride == (1, 0, 8, 0, 16)


class TestCoalesce:
    def test_size_beyond_64_bits_refused(self):
        # merging the two modes would take a 2^124 shape entry
        with pytest.raises(ArithmeticOverflowError):
            Layout((2**62, 2**62), (0, 0)).coalesce()

    def test_examples(self):
        assert Layout((1, 1), (2, 4)).coalesce() == Layout(1, 0)
        assert Layout((512,), (4,)).coalesce() == Layout(512, 4)
        assert Layout(
            ((2, 2), (2, 2), (5, 5)), ((1, 2), (16, 32), (64, 640))
        ).coalesce() == Layout((4, 20, 5), (1, 16, 640))

    def test_is_coalesced(self):
        assert Layout(1, 0).is_coalesced()
        assert Layout(512, 4).is_coalesced()
        assert not Layout((512,), (4,)).is_coalesced()
        assert not Layout(1, 3).is_coalesced()
        assert Layout((4, 20, 5), (1, 16, 640)).is_coalesced()
        assert not Layout((4, 20), (1, 4)).is_coalesced()

    def test_relative_example(self):
        l = Layout(((2, 2), (3, 3), (5, 5)), ((1, 2), (4, 12), (36, 180)))
        assert l.coalesce_relative(((2, 2), 9, 25)) == Layout(
            ((2, 2), 9, 25), ((1, 2), 4, 36)
        )

    @given(tractable_layouts())
    def test_preserves_function_and_minimizes(self, l):
        c = l.coalesce()
        assert table_of(c).values == table_of(l).values
        assert c.is_coalesced()
        assert c.complexity() <= l.complexity()

    @given(tractable_layouts())
    def test_relative_preserves_function_and_profile(self, l):
        c = l.coalesce_relative(l.shape)
        assert table_of(c).values == table_of(l).values
        assert refines(c.shape, l.shape)


class TestComplement:
    def test_examples(self):
        l = Layout(((16, 4), 64), ((1, 16), 64))
        assert l.complement(4096) == Layout(1, 0)
        assert l.complement(8192) == Layout(2, 4096)
        assert Layout(4, 2).complement(8) == Layout(2, 1)

    def test_size_beyond_64_bits_refused(self):
        with pytest.raises(ArithmeticOverflowError):
            Layout(2, 1).complement(2**64)

    def test_total_beyond_64_bits_refused(self):
        # the total is the last codomain entry times the product before it
        a = Layout(2**61, 4)
        with pytest.raises(
            ArithmeticOverflowError, match=r"^64-bit overflow in 2305843009213693952 \* 4$"
        ):
            a.complement(8)
        assert not a.is_n_complementable(8)

    @given(tractable_layouts(allow_zero=False))
    def test_oracle(self, l):
        if l.is_complementable():
            assert check_complement(l)


class TestCompose:
    def test_transcript_example(self):
        a = Layout(((4, 4), 4), ((16, 1), 4))
        b = Layout((8, 64), (64, 1))
        assert a.compose(b) == Layout(((4, 4), (2, 2)), ((2, 64), (256, 1)))

    def test_zero_layout_absorbs(self):
        a = Layout((128, 128), (0, 0))
        b = Layout((64, 4), (4, 1))
        assert a.compose(b) == a

    def test_not_composable(self):
        with pytest.raises(NotComposableError):
            Layout(64, 1).compose(Layout((3, 3), (3, 1)))

    def test_composite_in_range_at_the_64_bit_edge(self):
        # the morphisms composed have codomains of size 2^64; no stride is
        # that large
        a, b = Layout(4, 1), Layout(2**62, 4)
        assert a.compose(b) == Layout(4, 4)
        assert check_compose(a, b)

    def test_every_prefix_product_of_the_cut_codomain_is_checked(self):
        # b's standard representation is 2^40 -> (2^40, 2^40), cut to
        # (2^40, 2^30, 2^10): the leftover piece 2^10 carries no stride, but
        # the prefix product before it is taken, as the composite's layout would
        with pytest.raises(ArithmeticOverflowError) as refused:
            Layout(2**30, 1).compose(Layout(2**40, 2**40))
        assert str(refused.value) == "64-bit overflow in 1099511627776 * 1073741824"

    @given(tractable_layouts(), tractable_layouts())
    @settings(deadline=None)
    def test_oracle(self, a, b):
        try:
            c = a.compose(b)
        except NotComposableError:
            return
        assert check_compose(a, b, c)
        assert refines(c.shape, a.shape)

    @given(tractable_layouts(), tractable_layouts())
    @settings(deadline=None)
    def test_coalescing_second_operand_is_neutral(self, a, b):
        try:
            c = a.compose(b)
        except NotComposableError:
            return
        assert a.compose(b.coalesce()) == c


class TestDivideProduct:
    def test_divide_transcript(self):
        a = Layout((64, 32), (32, 1))
        b = Layout((4, 4), (1, 64))
        assert a.logical_divide(b) == Layout(
            ((4, 4), (16, 8)), ((32, 1), (128, 4))
        )

    def test_product_transcript(self):
        a = Layout((3, 10, 10), (200, 1, 20))
        b = Layout((2, 2), (1, 2))
        assert a.logical_product(b) == Layout(
            ((3, 10, 10), (2, 2)), ((200, 1, 20), (10, 600))
        )

    def test_product_worked_example(self):
        a = Layout((2, 2), (1, 2))
        b = Layout((5, 5), (5, 1))
        assert a.logical_product(b) == Layout(((2, 2), (5, 5)), ((1, 2), (20, 4)))

    @given(tractable_layouts(allow_zero=False, allow_unit=False), seeds())
    @settings(deadline=None)
    def test_divide_first_mode_is_tiler(self, a, rng):
        # dividing by a single full-size column tile reindexes a by itself
        if a.size() < 2:
            return
        b = Layout(a.size(), 1)
        try:
            q = a.logical_divide(b)
        except (NotComposableError, LayoutError):
            return
        assert table_of(q).values == table_of(a).values


class TestNoReferenceCycles:
    # operations leave nothing for the cyclic collector: their garbage is
    # freed by reference counting as soon as it is dropped
    @pytest.mark.parametrize(
        "op",
        [
            lambda: Layout(((4, 4), 4), ((16, 1), 4)).compose(Layout((8, 64), (64, 1))),
            lambda: Layout((64, 32), (32, 1)).logical_divide(Layout((4, 4), (1, 64))),
            lambda: Layout((2, 2), (1, 2)).logical_product(Layout((5, 5), (5, 1))),
            lambda: Layout(((4, 4), 4), ((16, 1), 4)).coalesce_relative((16, 4)),
        ],
        ids=["compose", "divide", "product", "coalesce_relative"],
    )
    def test_no_cyclic_garbage(self, op):
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                op()
            assert gc.collect() == 0
        finally:
            gc.enable()


def _revalidated(x):
    """``x`` rebuilt with every dataclass inside it passed through its
    validating constructor again."""
    if isinstance(x, Layout):  # it holds its flat form, which replace cannot pass on
        return Layout(_revalidated(x.shape), _revalidated(x.stride))
    if dataclasses.is_dataclass(x):
        fields = [f.name for f in dataclasses.fields(x)]
        return dataclasses.replace(x, **{f: _revalidated(getattr(x, f)) for f in fields})
    if isinstance(x, tuple):
        return tuple(_revalidated(c) for c in x)
    return x


def _coarsening(rng, shape):
    """A shape that ``shape`` refines: some modes replaced by their size."""
    if isinstance(shape, int):
        return shape
    return tuple(size(m) if rng.random() < 0.5 else _coarsening(rng, m) for m in shape)


class TestEngineOutputIsValid:
    # engine-built values skip validation; each must pass it when rebuilt
    def test_results_and_intermediates_revalidate(self):
        rng = random.Random(20261018)
        values = []
        composed = 0
        for _ in range(400):
            a, b = random_layout(rng), random_layout(rng)
            values += [a.flat(), a.coalesce(), a.coalesce_relative(_coarsening(rng, a.shape))]
            values += [concat_layouts([a, b]), column_major_layout(a.shape), Layout.of_flat(b.flat())]
            values.append(substitute_profile(a, (STAR,) * a.length()))
            for n in (None, a.cosize() * 4):
                try:
                    values.append(a.complement(n))
                except NotComplementableError:
                    pass
            for op in (a.compose, a.logical_divide, a.logical_product, partial(compose_tractable, a)):
                try:
                    values.append(op(b))
                except (NotComposableError, NotComplementableError):
                    pass
            f = standard_representation_nested(a)
            g = standard_representation_nested(b.coalesce())
            mr = mutual_refinement(f.fmap.codomain, g.domain)
            values += [f, g, mr]
            if mr is None or a.cosize() > b.size():
                continue
            composed += 1
            f_fine, g_fine = make_composable(f, g, mr)
            weak = layout_of_nested(compose_nest(f_fine, g_fine))
            values += [
                f_fine,
                g_fine,
                pullback(f, mr.t_ref),
                pushforward(g, mr.u_ref),
                weak,
                weak.coalesce_relative(a.shape),
            ]
        assert composed >= 50
        for x in values:
            assert _revalidated(x) == x, x
            if isinstance(x, Layout):
                flat = FlatLayout(flatten(x.shape), flatten(x.stride))
                assert x.flat() == flat == _revalidated(x).flat(), x
