"""Tuple morphisms: the engine encoding tractable flat layouts."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from layoutkit import (
    ArithmeticOverflowError,
    FlatLayout,
    Layout,
    LayoutError,
    NestMorphism,
    NotComplementableError,
    NotComposableError,
    NotTractableError,
    TupleMorphism,
    coalesce_m,
    coalesce_nm,
    complement_m,
    compose_morphisms,
    compose_nest,
    concat_layouts,
    concat_morphisms,
    functions_equal,
    identity,
    layout_of,
    layout_of_nested,
    logical_divide_m,
    logical_product_m,
    realize,
    size,
    sort_m,
    squeeze_m,
    standard_representation,
    sum_morphisms,
)

from generators import (
    composable_pairs,
    morphisms_with_units,
    non_degenerate,
    random_composable_pair,
    random_layout,
    random_morphism,
    seeds,
    standard_morphisms,
    tractable_flats,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(LayoutError):
            TupleMorphism((2, 2), (2, 2), (1,))  # map too short
        with pytest.raises(LayoutError):
            TupleMorphism((2, 2), (2, 2), (1, 3))  # position out of range
        with pytest.raises(LayoutError):
            TupleMorphism((2, 2), (2, 2), (1, 1))  # position hit twice
        with pytest.raises(LayoutError):
            TupleMorphism((2, 3), (2, 2), (1, 2))  # entry mismatch
        with pytest.raises(LayoutError, match="non-positive domain entry"):
            TupleMorphism((0,), (0,), (1,))
        with pytest.raises(LayoutError, match="non-positive codomain entry"):
            TupleMorphism((), (-2,), ())
        with pytest.raises(ArithmeticOverflowError):
            TupleMorphism((2**64,), (2**64,), (1,))

    def test_lists_are_kept_as_tuples(self):
        f = TupleMorphism([2], [2], [1])
        assert type(f.domain) is type(f.codomain) is type(f.amap) is tuple
        assert f == identity((2,)) and hash(f) == hash(identity((2,)))
        assert str(f) == "(2)--(1)-->(2)"
        assert compose_morphisms(f, identity((2,))) == identity((2,))
        with pytest.raises(LayoutError) as raised:
            TupleMorphism(2, 2, 1)
        assert type(raised.value) is LayoutError
        assert str(raised.value) == "domain must be a tuple or list, not int"
        with pytest.raises(LayoutError, match="^amap must be a tuple or list, not int$"):
            TupleMorphism((2,), (2,), 1)

    def test_predicates(self):
        f = TupleMorphism((2, 2, 2), (2, 2, 2), (1, 2, 3))
        assert f.is_injective() and f.is_standard_form() and f.is_non_degenerate()
        g = TupleMorphism((2, 1), (2,), (1, 0))
        assert not g.is_injective()
        assert g.is_non_degenerate()
        assert not TupleMorphism((1,), (2, 1), (2,)).is_non_degenerate()
        # a gap entry must be followed by a hit and must not be 1
        assert TupleMorphism((2,), (3, 2), (2,)).is_standard_form()
        assert not TupleMorphism((2,), (2, 3, 2), (1,)).is_standard_form()


class TestLayoutOf:
    def test_example(self):
        f = TupleMorphism(
            (3, 128, 128), (3, 2, 128, 2, 128), (1, 3, 5)
        )
        assert layout_of(f) == FlatLayout((3, 128, 128), (1, 6, 1536))

    def test_basepoint_gives_zero_stride(self):
        f = TupleMorphism((4, 3), (3,), (0, 1))
        assert layout_of(f) == FlatLayout((4, 3), (0, 1))

    def test_takes_no_product_of_the_whole_codomain(self):
        # the strides are in range although the codomain's size is 2^64
        l = FlatLayout((2**62,), (4,))
        assert layout_of(standard_representation(l)) == l


class TestStandardRepresentation:
    def test_examples(self):
        f = standard_representation(FlatLayout((2, 2), (3, 30)))
        assert (f.domain, f.codomain, f.amap) == ((2, 2), (3, 2, 5, 2), (2, 4))
        g = standard_representation(FlatLayout((2, 2, 2, 2), (24, 0, 3, 480)))
        assert (g.domain, g.codomain, g.amap) == (
            (2, 2, 2, 2),
            (3, 2, 4, 2, 10, 2),
            (4, 0, 2, 6),
        )

    def test_not_tractable(self):
        with pytest.raises(NotTractableError):
            standard_representation(FlatLayout((2, 2, 2), (1, 7, 4)))

    @given(tractable_flats())
    def test_round_trip_from_layout(self, l):
        l = non_degenerate(l)
        f = standard_representation(l)
        assert f.is_standard_form() and f.is_non_degenerate()
        assert layout_of(f) == l

    @given(standard_morphisms())
    def test_round_trip_from_morphism(self, f):
        assert standard_representation(layout_of(f)) == f


class TestRealize:
    def test_example(self):
        f = TupleMorphism((4, 4), (4, 4, 4), (1, 3))
        assert realize(f)[5] == 17

    def test_identity(self):
        assert realize(identity((3, 4))) == list(range(12))

    @given(composable_pairs())
    def test_functorial(self, fg):
        f, g = fg
        rf, rg = realize(f), realize(g)
        assert realize(compose_morphisms(f, g)) == [rg[x] for x in rf]

    @given(standard_morphisms())
    def test_matches_layout_function(self, f):
        l = layout_of(f)
        assert realize(f) == [l(x) for x in range(l.size())]


class TestOperations:
    def test_compose_transcript(self):
        f = TupleMorphism((2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (3, 2, 6, 5))
        g = TupleMorphism((2, 2, 2, 2, 2, 2), (2, 2, 2, 2), (1, 0, 2, 0, 3, 4))
        assert compose_morphisms(f, g) == TupleMorphism(
            (2, 2, 2, 2), (2, 2, 2, 2), (2, 0, 4, 3)
        )

    def test_compose_requires_matching_middle(self):
        with pytest.raises(LayoutError):
            compose_morphisms(identity((2,)), identity((3,)))

    def test_sum(self):
        f, g = identity((2,)), identity((3,))
        s = sum_morphisms(f, g)
        assert (s.domain, s.codomain, s.amap) == ((2, 3), (2, 3), (1, 2))

    def test_concat_requires_disjoint_images(self):
        f = TupleMorphism((2,), (2, 2), (1,))
        with pytest.raises(LayoutError):
            concat_morphisms([f, f])

    def test_concat_requires_operands_with_one_codomain(self):
        with pytest.raises(LayoutError, match="zero morphisms"):
            concat_morphisms([])
        with pytest.raises(LayoutError, match="common codomain"):
            concat_morphisms([identity((2,)), identity((3,))])

    def test_squeeze_sort_preserve_layout(self):
        f = TupleMorphism((2, 1, 3), (1, 3, 2), (3, 1, 2))
        assert layout_of(squeeze_m(f)) == layout_of(f).squeeze()
        assert layout_of(sort_m(f)) == layout_of(f).sort()

    @given(standard_morphisms(), morphisms_with_units())
    def test_squeeze_sort_coalesce_compatible(self, f, g):
        # g has unit codomain entries, hit or not, and any positions unhit
        for h in (f, g):
            assert layout_of(squeeze_m(h)) == layout_of(h).squeeze()
            assert layout_of(sort_m(h)) == layout_of(h).sort()
            assert layout_of(coalesce_m(h)) == layout_of(h).coalesce()

    def test_coalesce_transcript(self):
        f = TupleMorphism((2, 2, 10, 10), (2, 2, 2, 10, 10), (1, 2, 4, 5))
        assert coalesce_m(f) == TupleMorphism((4, 100), (4, 2, 100), (1, 3))
        # a basepoint run merges; unit entries go, hit by a unit mode or not
        f = TupleMorphism((2, 3, 2, 1, 2, 5), (2, 1, 2, 1, 3, 5), (0, 0, 1, 2, 3, 6))
        assert coalesce_m(f) == TupleMorphism((6, 4, 5), (4, 3, 5), (0, 1, 3))
        # merged basepoint modes of size 2^124 are refused, not returned
        with pytest.raises(ArithmeticOverflowError):
            coalesce_m(TupleMorphism((2**62, 2**62), (), (0, 0)))

    def test_complement_transcript(self):
        f = TupleMorphism((2, 2), (2, 5, 2, 5), (1, 3))
        assert complement_m(f) == TupleMorphism((5, 5), (2, 5, 2, 5), (2, 4))

    def test_complement_example(self):
        f = TupleMorphism((512, 256), (10, 256, 512, 512), (3, 2))
        fc = complement_m(f)
        assert (fc.domain, fc.amap) == ((10, 512), (1, 4))

    def test_complement_requires_injective(self):
        with pytest.raises(LayoutError):
            complement_m(TupleMorphism((2,), (2,), (0,)))

    @given(standard_morphisms())
    def test_complement_fills_codomain(self, f):
        if not f.is_injective():
            return
        fc = complement_m(f)
        full = concat_morphisms([f, fc])
        assert sorted(full.image) == list(range(1, len(f.codomain) + 1))

    def test_product_identity_example(self):
        f = TupleMorphism((8, 8), (8, 8, 16, 16), (1, 2))
        g = identity((16, 16))
        assert logical_product_m(_flat_nm(f), _flat_nm(g)).fmap == identity((8, 8, 16, 16))

    @given(standard_morphisms(), seeds())
    def test_product_complement_distributes(self, f, rng):
        # (f x g)^c == f^c . g^c for injective g into the missed part
        if not f.is_injective():
            return
        fc = complement_m(f)
        g = _random_subinclusion(rng, fc.domain)
        p = logical_product_m(_flat_nm(f), _flat_nm(g)).fmap
        assert complement_m(p) == compose_morphisms(complement_m(g), fc)

    @given(composable_pairs(), seeds())
    def test_compose_distributes_over_concat(self, fg, rng):
        f, g = fg
        if not f.amap:
            return
        # split f's domain modes into two concatenands
        cut = rng.randrange(len(f.amap) + 1)
        f1 = TupleMorphism(f.domain[:cut], f.codomain, f.amap[:cut])
        f2 = TupleMorphism(f.domain[cut:], f.codomain, f.amap[cut:])
        lhs = compose_morphisms(concat_morphisms([f1, f2]), g)
        rhs = concat_morphisms(
            [compose_morphisms(f1, g), compose_morphisms(f2, g)]
        )
        assert lhs == rhs


def _flat_nm(f):
    """``f`` as a nest morphism whose domain and codomain trees are flat."""
    return NestMorphism(f.domain, f.codomain, f)


def _random_subinclusion(rng, codomain):
    """An injective morphism into a random subset of ``codomain``'s
    positions, in a random order."""
    positions = [j for j in range(1, len(codomain) + 1) if rng.random() < 0.6]
    rng.shuffle(positions)
    return TupleMorphism(
        tuple(codomain[j - 1] for j in positions), tuple(codomain), tuple(positions)
    )


def _agreement(layout, morphism_side):
    """How the layout ``layout()`` relates to the layout of the morphism
    operation: identical, or the same function and the same coalesce."""
    try:
        got = layout()
    except LayoutError as exc:
        return type(exc)
    want = layout_of_nested(morphism_side)
    if got == want:
        return "identical"
    assert functions_equal(got, want) and got.coalesce() == want.coalesce()
    return "same"


class TestCompatibleWithLayoutOperations:
    """Each morphism operation computes its layout operation wherever the
    layout side is defined; the classes where only the morphism side is
    defined are pinned, and none of them is empty."""

    def test_coalesce(self):
        # the sides differ only where f coalesces to rank 0: the layout side
        # gives 1:0, the morphism side ():()
        seen = Counter()
        for seed in range(2000):
            nf = _flat_nm(random_morphism(random.Random(seed)))
            a = layout_of_nested(nf)
            seen[_agreement(a.coalesce, coalesce_nm(nf))] += 1
        assert set(seen) == {"identical", "same"}
        nf = _flat_nm(TupleMorphism((), (5,), ()))
        assert (layout_of_nested(nf).coalesce(), layout_of_nested(coalesce_nm(nf))) == (
            Layout(1, 0),
            Layout((), ()),
        )

    def test_complement(self):
        # an injective f: the complement of its layout in the size of its
        # codomain (never refused) is the layout of its complement, up to
        # coalescing
        seen = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            f = random_morphism(rng)
            while not f.is_injective():
                f = random_morphism(rng)
            flat = layout_of(f).complement(size(f.codomain))
            got = Layout(flat.shape, flat.stride)  # flat trees, as layout_of_nested gives
            seen[_agreement(lambda: got, _flat_nm(complement_m(f)))] += 1
        assert set(seen) == {"identical", "same"}
        f = TupleMorphism((3,), (3, 3, 2), (1,))
        assert layout_of(f).complement(18) == FlatLayout((6,), (3,))
        assert layout_of(complement_m(f)) == FlatLayout((3, 2), (3, 9))

    def test_compose(self):
        # a composable pair: the composite of the layouts is the layout of
        # the composite, exactly
        seen = Counter()
        for seed in range(2000):
            nf, ng = map(_flat_nm, random_composable_pair(random.Random(seed)))
            a, b = layout_of_nested(nf), layout_of_nested(ng)
            seen[_agreement(lambda: a.compose(b), compose_nest(nf, ng))] += 1
        assert set(seen) == {"identical"}

    def test_divide(self):
        # f, and an injective g into f's domain: the layout side refuses only
        # a tiler whose unit mode breaks the chain of (B, B*)
        seen = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            f = random_morphism(rng)
            nf, ng = _flat_nm(f), _flat_nm(_random_subinclusion(rng, f.domain))
            a, b = layout_of_nested(nf), layout_of_nested(ng)
            seen[_agreement(lambda: a.logical_divide(b), logical_divide_m(nf, ng))] += 1
        assert set(seen) == {"identical", "same", NotTractableError}
        with pytest.raises(NotTractableError, match=r"\(1,3,6\):\(3,6,1\) is not tractable"):
            Layout(18, 1).logical_divide(Layout((1, 3), (3, 6)))

    def test_product(self):
        # an injective f, and g into the domain of complement(f): the layout
        # side refuses where size(A)*cosize(B) is no multiple of A's extent,
        # or where B does not compose with that complement
        seen = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            f = random_morphism(rng)
            while not f.is_injective():
                f = random_morphism(rng)
            g = _random_subinclusion(rng, complement_m(f).domain)
            nf, ng = _flat_nm(f), _flat_nm(g)
            a, b = layout_of_nested(nf), layout_of_nested(ng)
            seen[_agreement(lambda: a.logical_product(b), logical_product_m(nf, ng))] += 1
        assert set(seen) <= {"identical", "same", NotComplementableError, NotComposableError}
        assert {"identical", NotComplementableError, NotComposableError} <= set(seen)

    def test_compose_distributes_over_concatenation(self):
        # (a1, a2) then b is (a1 then b, a2 then b) wherever both parts compose
        # and the whole does; the whole may be refused as not tractable, or
        # as not composable when its cosize exceeds size(b)
        seen = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            a1, a2, b = random_layout(rng), random_layout(rng), random_layout(rng)
            try:
                parts = concat_layouts([a1.compose(b), a2.compose(b)])
            except LayoutError:
                continue
            try:
                whole = concat_layouts([a1, a2]).compose(b)
            except LayoutError as exc:
                seen[type(exc)] += 1
                continue
            assert whole == parts
            seen["exact"] += 1
        assert set(seen) == {"exact", NotTractableError, NotComposableError}
