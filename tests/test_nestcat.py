"""Nested morphisms, refinement transport, mutual refinement, composition."""

import math
import random

import pytest
from hypothesis import given, settings

from layoutkit import (
    ArithmeticOverflowError,
    FlatLayout,
    Layout,
    LayoutError,
    MutualRefinement,
    NestMorphism,
    NotComplementableError,
    NotComposableError,
    NotRefinementError,
    NotTractableError,
    Refinement,
    TupleMorphism,
    check_compose,
    coalesce_nm,
    complement_m,
    complement_nm,
    compose_nest,
    compose_tractable,
    concat_layouts,
    concat_nm,
    divides,
    flatten,
    identity,
    is_admissible_for_composition,
    layout_of,
    layout_of_nested,
    logical_divide_m,
    logical_product_m,
    make_composable,
    mutual_refinement,
    nest_morphism,
    pullback,
    pushforward,
    refines,
    standard_representation,
    standard_representation_nested,
    table_of,
)

from layoutkit.shapes import checked_mul

from generators import (
    random_edge_layout,
    random_layout,
    random_nested_tuple,
    random_refinement,
    seeds,
    tractable_layouts,
)


class TestNestMorphism:
    def test_tree_must_match_flat_map(self):
        with pytest.raises(LayoutError):
            nest_morphism((2, 2), (2, 2, 2), (1, 2, 3))

    def test_entries_range_checked(self):
        with pytest.raises(LayoutError, match="non-positive domain entry"):
            nest_morphism((0,), (0,), (1,))

    def test_trees_must_flatten_to_the_tuple_morphism(self):
        assert NestMorphism(((2,), 2), (2, (2,)), identity((2, 2))).fmap == identity((2, 2))
        with pytest.raises(LayoutError, match=r"domain \(2, 3\) does not flatten"):
            NestMorphism((2, 3), (2, 2), identity((2, 2)))
        with pytest.raises(LayoutError, match="codomain 4 does not flatten"):
            NestMorphism((2, 2), 4, identity((2, 2)))

    def test_non_degenerate(self):
        assert nest_morphism((2, (1, 2)), (2, 2), (1, 0, 2)).is_non_degenerate()
        assert not nest_morphism((2, (1, 2)), (2, 1, 2), (1, 2, 3)).is_non_degenerate()

    def test_layout_of_transcript(self):
        f = nest_morphism(((5, 5), 8), (5, 8, 5), (1, 3, 2))
        assert layout_of_nested(f) == Layout(((5, 5), 8), ((1, 40), 5))

    def test_standard_representation_transcript(self):
        l = Layout((2, 2, 2), (1, 2, 4))
        f = standard_representation_nested(l)
        assert f.domain == (2, 2, 2)
        assert f.codomain == (2, 2, 2)
        assert f.fmap.amap == (1, 2, 3)
        assert f.is_standard_form()

    def test_standard_representation_nested_domain(self):
        l = Layout((32, (2, 2)), (192, (24, 3)))
        f = standard_representation_nested(l)
        assert f.domain == (32, (2, 2))
        assert f.codomain == (3, 2, 4, 2, 4, 32)
        assert f.fmap.amap == (6, 4, 2)

    @given(tractable_layouts())
    def test_round_trip(self, l):
        f = standard_representation_nested(l)
        got = layout_of_nested(f)
        assert got.shape == l.shape
        # unit-shape entries are normalized to stride 0; the function agrees
        assert table_of(got).values == table_of(l).values


class TestRefinementTransport:
    def test_refinement_validates(self):
        Refinement((2, (2, 2)), 8)
        with pytest.raises(NotRefinementError):
            Refinement((8, 8), (4, 16))
        # the sizes agree, but a refinement's entries are positive
        with pytest.raises(LayoutError, match="non-positive entry"):
            Refinement(((-1, -4),), (4,))

    def test_pullback_example(self):
        f = nest_morphism((64, 32), (4, 64, 4, 32), (2, 4))
        fine = (4, (2, 32), 4, (16, 2))
        g, dom_ref = pullback(f, Refinement(fine, f.codomain))
        assert g.codomain == fine
        assert g.domain == ((2, 32), (16, 2))
        assert g.fmap.amap == (2, 3, 5, 6)
        assert dom_ref.coarse == f.domain
        assert g.realize() == f.realize()

    def test_pushforward_example(self):
        f = nest_morphism((64, 32), (4, 64, 4, 32), (2, 4))
        fine = ((8, 8), (2, 16))
        g, cod_ref = pushforward(f, Refinement(fine, f.domain))
        assert g.domain == fine
        assert g.codomain == (4, (8, 8), 4, (2, 16))
        assert g.fmap.amap == (2, 3, 5, 6)
        assert cod_ref.coarse == f.codomain
        assert g.realize() == f.realize()

    def test_refinement_must_lie_over_the_morphism(self):
        f = nest_morphism((64, 32), (4, 64, 4, 32), (2, 4))
        with pytest.raises(LayoutError, match="is not the codomain"):
            pullback(f, Refinement(((8, 8), (4, 8)), f.domain))
        with pytest.raises(LayoutError, match="is not the domain"):
            pushforward(f, Refinement(((2, 2), (8, 8), 4, 32), f.codomain))

    def test_deep_refinements_with_unit_leaves(self):
        # sub-trees two deep with unit leaves: each is cut into its leaves
        f = nest_morphism((6, 4), (4, 6), (2, 1))
        g, dom_ref = pullback(f, Refinement(((2, (1, 2)), (2, (1, 3))), f.codomain))
        assert g.domain == ((2, (1, 3)), (2, (1, 2)))
        assert g.fmap == TupleMorphism(
            (2, 1, 3, 2, 1, 2), (2, 1, 2, 2, 1, 3), (4, 5, 6, 1, 2, 3)
        )
        assert dom_ref == Refinement(g.domain, f.domain)
        f = nest_morphism((6, 4), (4, 5, 6), (3, 1))
        g, cod_ref = pushforward(f, Refinement(((3, (2, 1)), ((1,), 4)), f.domain))
        assert g.codomain == (((1,), 4), 5, (3, (2, 1)))
        assert g.fmap == TupleMorphism(
            (3, 2, 1, 1, 4), (1, 4, 5, 3, 2, 1), (4, 5, 6, 1, 2)
        )
        assert cod_ref == Refinement(g.codomain, f.codomain)
        assert g.realize() == f.realize()

    @given(tractable_layouts(), seeds())
    @settings(deadline=None)
    def test_transport_preserves_realization(self, l, rng):
        # refining sub-trees nest up to three deep and carry unit leaves
        f = standard_representation_nested(l)
        fine = random_refinement(rng, f.codomain)
        g, dom_ref = pullback(f, Refinement(fine, f.codomain))
        assert (g.codomain, dom_ref.coarse) == (fine, f.domain)
        self._assert_valid(g, dom_ref)
        assert g.realize() == f.realize()

        fine = random_refinement(rng, f.domain)
        h, cod_ref = pushforward(f, Refinement(fine, f.domain))
        assert (h.domain, cod_ref.coarse) == (fine, f.codomain)
        self._assert_valid(h, cod_ref)
        assert h.realize() == f.realize()

    @staticmethod
    def _assert_valid(g, ref):
        # the engine builds both unchecked: each must pass its own validation
        fmap = TupleMorphism(g.fmap.domain, g.fmap.codomain, g.fmap.amap)
        assert NestMorphism(g.domain, g.codomain, fmap) == g
        assert Refinement(ref.fine, ref.coarse) == ref


class TestMutualRefinement:
    def test_worked_examples(self):
        mr = mutual_refinement((6, 6), (12, 3, 6))
        assert mr.t_ref.fine == (6, (2, 3))
        assert mr.u_ref.fine == ((6, 2), 3, 6)

        mr = mutual_refinement((8, 8, 8), (2, 8, 8, 8))
        assert mr.t_ref.fine == ((2, 4), (2, 4), (2, 4))
        assert mr.u_ref.fine == (2, (4, 2), (4, 2), (4, 2))

        # unit entries, a depth-0 tuple, an empty one; an entry with one
        # piece stays an int, any other is a tuple
        for t, u, t_fine, u_fine in (
            ((1, 4), (2, 1, 2), (1, (2, 1, 2)), ((1, 2), 1, 2)),
            ((4, 1), (2, 2, 3), ((2, 2), 1), (2, 2, (1, 3))),
            (4, (2, 2), (2, 2), (2, 2)),
            ((), (4,), (), (4,)),
        ):
            mr = mutual_refinement(t, u)
            assert (mr.t_ref.fine, mr.u_ref.fine) == (t_fine, u_fine)
        assert mutual_refinement((2, 3), (2,)) is None

    def test_failure_example(self):
        assert mutual_refinement((8, 8), (3, 8, 8)) is None

    def test_non_positive_entry_refused(self):
        for t, u in (((0, 4), (4,)), ((4,), (0, 4)), ((4, (2, -1)), (8,))):
            with pytest.raises(LayoutError, match="non-positive entry"):
                mutual_refinement(t, u)

    def test_entry_beyond_64_bits_refused(self):
        with pytest.raises(ArithmeticOverflowError):
            mutual_refinement((2**64,), (2**64,))

    def test_constructor_requires_flat_prefix(self):
        mr = mutual_refinement((6, 6), (12, 3, 6))
        assert MutualRefinement(mr.t_ref, mr.u_ref) == mr
        with pytest.raises(LayoutError):
            MutualRefinement(
                Refinement((6, 6), (6, 6)), Refinement((12, 3, 6), (12, 3, 6))
            )

    def test_trailing_entries_survive(self):
        mr = mutual_refinement((4,), (4, 7))
        assert mr is not None
        assert mr.u_ref.fine == (4, 7)

    @given(seeds())
    def test_soundness(self, rng):
        t, u = random_nested_tuple(rng), random_nested_tuple(rng)
        mr = mutual_refinement(t, u)
        if mr is None:
            return
        assert refines(mr.t_ref.fine, t)
        assert refines(mr.u_ref.fine, u)
        assert divides(mr.t_ref.fine, mr.u_ref.fine)


class TestComposition:
    def test_worked_compositions(self):
        cases = [
            ((4,), (1,), (2, 2), (2, 1), ((2, 2),), ((2, 1),)),
            ((6, 6), (6, 1), (12, 3, 6), (1, 72, 12), ((2, 3), 6), ((6, 72), 1)),
            ((8, 8), (8, 1), (16, 16), (16, 1), ((2, 4), 8), ((128, 1), 16)),
            (
                (16, 16),
                (16, 1),
                (8, 8, 8),
                (64, 8, 1),
                ((4, 4), (8, 2)),
                ((16, 1), (64, 8)),
            ),
            ((6, 6), (5, 60), (10, 360), (2, 60), ((2, 3), 6), ((10, 60), 360)),
        ]
        for s_a, d_a, s_b, d_b, s_c, d_c in cases:
            a, b = Layout(s_a, d_a), Layout(s_b, d_b)
            assert a.compose(b) == Layout(s_c, d_c)

    def test_weak_composite_refines_first_operand(self):
        a = Layout((4,), (1,))
        b = Layout((2, 2), (2, 1))
        weak = compose_tractable(a, b)
        assert refines(weak.shape, a.shape)
        assert check_compose(a, b, weak)

    def test_cosize_guard(self):
        with pytest.raises(NotComposableError):
            compose_tractable(Layout(64, 1), Layout((3, 3), (3, 1)))

    def test_make_composable_yields_equal_middles(self):
        a = Layout(((4, 4), 4), ((16, 1), 4))
        b = Layout((8, 64), (64, 1))
        f = standard_representation_nested(a)
        g = standard_representation_nested(b.coalesce())
        mr = mutual_refinement(tuple(f.fmap.codomain), g.domain)
        f2, g2 = make_composable(f, g, mr)
        assert flatten(f2.codomain) == flatten(g2.domain)
        composite = compose_nest(f2, g2)
        la, lc = layout_of_nested(f), layout_of_nested(composite)
        assert check_compose(la, b, lc)
        with pytest.raises(LayoutError, match="does not lie over"):
            make_composable(g, f, mr)

    def test_compose_equals_the_nest_category_route(self):
        # compose_tractable runs on tuple morphisms; the public Nest-category
        # route, built as the benchmark's staged replay builds it, returns
        # the same layout or refuses with the same message.  compose, which
        # coalesces each leaf's pieces where it cuts them, equals the route's
        # weak composite coalesced relative to shape(a)
        def route(a, b):
            if a.cosize() > b.size():
                raise NotComposableError(
                    f"cosize {a.cosize()} of the first layout exceeds size {b.size()} "
                    f"of the second"
                )
            f = standard_representation_nested(a)
            g = standard_representation_nested(b.coalesce())
            mr = mutual_refinement(tuple(f.fmap.codomain), g.domain)
            if mr is None:
                raise NotComposableError(
                    f"no mutual refinement of {f.fmap.codomain} and {g.domain}"
                )
            return layout_of_nested(compose_nest(*make_composable(f, g, mr)))

        def outcome(op, a, b):
            try:
                return op(a, b)
            except LayoutError as e:
                return type(e).__name__, str(e)

        def divided(a, tiler):  # the composition logical_divide makes
            return concat_layouts([tiler, tiler.complement(a.size())]), a

        def multiplied(a, b):  # the composition logical_product makes
            return b, a.complement(a.size() * b.cosize())

        # the README's compose and divide, and the acceptance worked examples
        pairs = [
            (Layout(((4, 4), 4), ((16, 1), 4)), Layout((8, 64), (64, 1))),
            divided(Layout((64, 32), (32, 1)), Layout((4, 4), (1, 64))),
            divided(Layout((8, 8), (8, 1)), Layout((2, 2), (1, 4))),
            multiplied(Layout((2, 2), (1, 2)), Layout((5, 5), (5, 1))),
            multiplied(Layout((3, 10, 10), (200, 1, 20)), Layout((2, 2), (1, 2))),
            (Layout((6, 6), (5, 60)), Layout((10, 360), (2, 60))),
        ]
        for seed in range(2000):
            rng = random.Random(seed)
            pairs.append((random_layout(rng), random_layout(rng)))
        classes = {"composed": 0, "cosize": 0, "no mutual refinement": 0}
        for a, b in pairs:
            got, routed = outcome(compose_tractable, a, b), outcome(route, a, b)
            assert got == routed, (a, b)
            if isinstance(routed, Layout):
                routed = routed.coalesce_relative(a.shape)
            assert outcome(Layout.compose, a, b) == routed, (a, b)
            if isinstance(got, Layout):
                classes["composed"] += 1
            else:
                classes[next(k for k in classes if k in got[1])] += 1
        assert all(classes.values()), classes

    def test_edge_pairs_equal_the_nest_category_route(self):
        # pairs from the 64-bit-edge generator: where the route's standard
        # representations and mutual refinement exist, the weak composite is
        # the route's, and a stride past 2^63-1 is refused with the text the
        # route's layout_of gives, though compose takes no prefix product of b
        def outcome(op, *args):
            try:
                return op(*args)
            except LayoutError as e:
                return type(e).__name__, str(e)

        rng = random.Random(2)
        composed = overflows = 0
        for _ in range(1000):
            a, b = random_edge_layout(rng, 2), random_edge_layout(rng)
            try:
                if a.cosize() > b.size():
                    continue
                f = standard_representation_nested(a)
                g = standard_representation_nested(b.coalesce())
            except LayoutError:  # past the 64-bit range, or not tractable
                continue
            mr = mutual_refinement(f.fmap.codomain, g.domain)
            if mr is None:
                continue
            got = outcome(compose_tractable, a, b)
            assert got == outcome(lambda: layout_of_nested(compose_nest(*make_composable(f, g, mr))))
            if isinstance(got, Layout):
                composed += 1
            else:
                assert got[0] == "ArithmeticOverflowError"
                overflows += 1
        assert composed > 100 and overflows > 5, (composed, overflows)

    def test_compose_is_the_weak_composite(self):
        # a leaf's pieces over the coalesce of b are coalesced already, so
        # wherever compose succeeds it equals compose_tractable, shape tree and
        # strides alike, on seeded pairs and on pairs at the 64-bit edge
        rng = random.Random(31)
        composed = [0, 0]
        for _ in range(1500):
            for i, (a, b) in enumerate((
                (random_layout(rng), random_layout(rng)),
                (random_edge_layout(rng, 2), random_edge_layout(rng)),
            )):
                try:
                    c = a.compose(b)
                except LayoutError:
                    continue
                assert c == compose_tractable(a, b), (a, b)
                composed[i] += 1
        assert min(composed) > 100, composed

    def test_divide_product_and_complement_equal_their_definitions(self):
        # divide and product compose flat forms and nest once, and the
        # complement is read off the walk; each gives what its definition on
        # Layouts and morphisms gives, or refuses with the same message
        def complement(flat, n=None):  # the layout of the walk's complement, coalesced
            try:
                f = standard_representation(flat.squeeze())
            except NotTractableError:
                f = None
            if f is None or not f.is_injective():
                raise NotComplementableError(f"{flat} is not complementable")
            if n is not None:
                cod = f.codomain
                total = checked_mul(cod[-1], math.prod(cod[:-1])) if cod else 1
                if n < 1 or n % total != 0:
                    raise NotComplementableError(
                        f"{flat} is not {n}-complementable: {n} is not a positive multiple of {total}"
                    )
                if n > 2**63 - 1:
                    raise ArithmeticOverflowError(
                        f"complement size {n} in {flat} exceeds the signed 64-bit range"
                    )
                f = TupleMorphism(f.domain, cod + (n // total,), f.amap)
            return layout_of(complement_m(f)).coalesce()

        def divide(a, b):
            return concat_layouts([b, b.complement(a.size())]).compose(a)

        def product(a, b):
            return concat_layouts([a, b.compose(a.complement(a.size() * b.cosize()))])

        def outcome(op, *args):
            try:
                return op(*args)
            except LayoutError as e:
                return type(e).__name__, str(e)

        pairs = [  # the worked examples, then a divide whose complement is empty
            (Layout(((4, 4), 4), ((16, 1), 4)), Layout((8, 64), (64, 1))),
            (Layout((64, 32), (32, 1)), Layout((4, 4), (1, 64))),
            (Layout((8, 8), (8, 1)), Layout((2, 2), (1, 4))),
            (Layout((2, 2), (1, 2)), Layout((5, 5), (5, 1))),
            (Layout((3, 10, 10), (200, 1, 20)), Layout((2, 2), (1, 2))),
            (Layout(16, 1), Layout((4, 4), (1, 4))),
        ]
        for seed in range(2000):
            rng = random.Random(seed)
            pairs.append((random_layout(rng), random_layout(rng)))
        assert Layout(16, 1).logical_divide(Layout((4, 4), (1, 4))) == Layout(
            ((4, 4), 1), ((1, 4), 0)
        )
        accepted = {"divide": 0, "product": 0, "complement": 0}
        for a, b in pairs:
            got = outcome(Layout.logical_divide, a, b)
            assert got == outcome(divide, a, b), (a, b)
            accepted["divide"] += isinstance(got, Layout)
            got = outcome(Layout.logical_product, a, b)
            assert got == outcome(product, a, b), (a, b)
            accepted["product"] += isinstance(got, Layout)
            for flat in (a.flat(), b.flat()):
                for n in (None, a.size(), a.size() * b.cosize()):
                    got = outcome(flat.complement, n)
                    assert got == outcome(complement, flat, n), (flat, n)
                    accepted["complement"] += isinstance(got, FlatLayout)
        assert all(accepted.values()), accepted

    @given(tractable_layouts(), tractable_layouts())
    @settings(deadline=None)
    def test_nested_functoriality(self, a, b):
        # L_{g.f} == L_g . L_f whenever the middle trees already match
        f = standard_representation_nested(a)
        g = standard_representation_nested(b)
        if flatten(f.codomain) != flatten(g.domain):
            return
        gf = compose_nest(f, nest_morphism(f.codomain, g.codomain, g.fmap.amap))
        la, lb = layout_of_nested(f), layout_of_nested(g)
        assert table_of(layout_of_nested(gf)).values == tuple(
            lb(la(x)) for x in range(la.size())
        )


class TestMorphismOps:
    def test_concat_and_complement(self):
        f = nest_morphism((4, 4), (4, 8, 4, 8), (1, 3))
        fc = complement_nm(f)
        assert fc.domain == (8, 8)
        assert fc.fmap.amap == (2, 4)
        both = concat_nm([f, fc])
        assert both.domain == ((4, 4), (8, 8))
        with pytest.raises(LayoutError, match="zero morphisms"):
            concat_nm([])
        with pytest.raises(LayoutError, match="common codomain"):
            concat_nm([f, nest_morphism((4, 4), ((4, 8), (4, 8)), (1, 3))])

    def test_divide_transcript(self):
        f = nest_morphism((4, 8, 4, 8), (4, 8, 4, 8), (1, 2, 3, 4))
        g = nest_morphism((4, 4), (4, 8, 4, 8), (1, 3))
        q = logical_divide_m(f, g)
        assert q.domain == ((4, 4), (8, 8))
        assert q.fmap.amap == (1, 3, 2, 4)
        assert q.codomain == (4, 8, 4, 8)

    def test_product_transcript(self):
        f = nest_morphism((2, 2), (2, 2, 5, 5), (1, 2))
        g = nest_morphism((5, 5), (5, 5), (2, 1))
        p = logical_product_m(f, g)
        assert p.domain == ((2, 2), (5, 5))
        assert p.fmap.amap == (1, 2, 4, 3)
        assert p.codomain == (2, 2, 5, 5)

    def test_coalesce_collapses_rank_one(self):
        f = nest_morphism((2, 2, 10, 10), (2, 2, 2, 10, 10), (1, 2, 4, 5))
        c = coalesce_nm(f)
        assert c.domain == (4, 100)
        assert c.codomain == (4, 2, 100)
        assert c.fmap.amap == (1, 3)


class TestAdmissibility:
    def test_rejects_degenerate_first_operand(self):
        from layoutkit import FlatLayout

        with pytest.raises(LayoutError):
            is_admissible_for_composition(
                FlatLayout((1, 2), (1, 1)), FlatLayout((4,), (1,))
            )
        with pytest.raises(LayoutError):
            is_admissible_for_composition(
                FlatLayout((2,), (0,)), FlatLayout((4,), (1,))
            )

    def test_simple_cases(self):
        from layoutkit import FlatLayout

        assert is_admissible_for_composition(
            FlatLayout((4, 4), (1, 16)), FlatLayout((8, 8), (8, 1))
        )
        # stride 3 does not nest between the prefix products 1, 8, 64
        assert not is_admissible_for_composition(
            FlatLayout((2,), (3,)), FlatLayout((8, 8), (8, 1))
        )
        # both modes nest, but their stride intervals overlap at 1
        assert not is_admissible_for_composition(
            FlatLayout((2, 2), (1, 1)), FlatLayout((4,), (1,))
        )
