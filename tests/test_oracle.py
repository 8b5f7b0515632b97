"""The exhaustive-evaluation ground truth itself."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from layoutkit import (
    ArithmeticOverflowError,
    FlatLayout,
    FunctionTable,
    Layout,
    LayoutError,
    OracleCapError,
    check_complement,
    check_compose,
    exhaustive_complement_search,
    functions_equal,
    table_of,
)

from generators import tractable_flats


class TestFunctionTable:
    def test_table_matches_pointwise_evaluation(self):
        l = FlatLayout((3, 4, 2), (2, 7, 0))
        assert table_of(l).values == tuple(l(x) for x in range(l.size()))

    def test_accepts_nested_layouts(self):
        l = Layout(((2, 2), 3), ((1, 2), 4))
        assert table_of(l).values == tuple(l(x) for x in range(12))

    def test_bijection_predicate(self):
        assert FunctionTable((2, 0, 1)).is_bijection_onto_range()
        assert not FunctionTable((0, 0, 2)).is_bijection_onto_range()
        assert FunctionTable(()).is_bijection_onto_range()
        assert FunctionTable((0,)).is_bijection_onto_range()
        assert FunctionTable((3, 5, 0, 4, 1, 2)).is_bijection_onto_range()
        # a duplicate, a negative value, a value past the range
        assert not FunctionTable((1, 1)).is_bijection_onto_range()
        assert not FunctionTable((-1, 1)).is_bijection_onto_range()
        assert not FunctionTable((0, 2)).is_bijection_onto_range()

    @given(st.lists(st.integers(-3, 8), max_size=8))
    def test_bijection_predicate_is_a_sorted_range(self, values):
        want = sorted(values) == list(range(len(values)))
        assert FunctionTable(tuple(values)).is_bijection_onto_range() == want

    def test_index_outside_the_domain_is_refused(self):
        t = table_of(Layout(4, 1))
        assert [t[x] for x in range(4)] == [0, 1, 2, 3]
        for x in (-1, 4, True, 1.0, "1", None):
            with pytest.raises(LayoutError) as refused:
                t[x]
            assert str(refused.value) == f"a table of size 4 has no index {x!r}"
        with pytest.raises(LayoutError, match="size 0 has no index 0"):
            FunctionTable(())[0]

    def test_cap(self):
        with pytest.raises(OracleCapError):
            table_of(FlatLayout((4096,), (1,)), cap=100)

    def test_huge_layout_refused_before_tabulating(self):
        with pytest.raises(OracleCapError):
            table_of(FlatLayout((2**20, 2**20), (1, 2**20)))

    def test_rank_zero(self):
        assert table_of(FlatLayout((), ())).values == (0,)

    def test_unit_and_broadcast_modes(self):
        l = FlatLayout((1, 3, 2, 1), (5, 0, 3, 7))
        assert table_of(l).values == (0, 0, 0, 3, 3, 3)

    @given(tractable_flats())
    def test_odometer_agrees_with_delinearization(self, l):
        assert table_of(l).values == tuple(l(x) for x in range(l.size()))


class TestChecks:
    def test_functions_equal(self):
        assert functions_equal(
            FlatLayout((4,), (2,)), FlatLayout((2, 2), (2, 4))
        )
        assert not functions_equal(FlatLayout((4,), (2,)), FlatLayout((4,), (1,)))
        assert not functions_equal(FlatLayout((4,), (1,)), FlatLayout((2,), (1,)))

    def test_check_compose_engine_default(self):
        a = Layout(((4, 4), 4), ((16, 1), 4))
        b = Layout((8, 64), (64, 1))
        assert check_compose(a, b)
        assert not check_compose(a, b, a)
        # a composite of the wrong size is no composite
        assert not check_compose(Layout(4, 1), Layout(8, 1), Layout(2, 1))

    def test_check_complement(self):
        a = FlatLayout((2, 2), (2, 8))
        assert check_complement(a)
        assert check_complement(a, n=32)
        assert check_complement(a, FlatLayout((2, 2), (1, 4)))
        assert not check_complement(a, FlatLayout((2, 2), (1, 2)))
        assert not check_complement(a, FlatLayout((2, 2), (1, 4)), n=64)
        with pytest.raises(OracleCapError):
            check_complement(a, n=64, cap=32)


def _flat(shape, stride):
    return FlatLayout(tuple(shape), tuple(stride))


@st.composite
def compose_triples(draw):
    """Flat ``a`` and ``b`` with cosize(a) <= size(b), and a flat ``c`` of
    size(a): the engine's composite when there is one, else random."""
    shapes = st.lists(st.integers(1, 4), max_size=4)

    def strides(n):
        return draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))

    a_shape = draw(shapes)
    a = _flat(a_shape, strides(len(a_shape)))
    b_shape = draw(shapes)
    size_b = math.prod(b_shape)
    if size_b < a.cosize():
        b_shape.append(-(-a.cosize() // size_b))
    b = _flat(b_shape, strides(len(b_shape)))
    c = _flat(a_shape, strides(len(a_shape)))
    if draw(st.booleans()):
        try:
            c = Layout.of_flat(a).compose(Layout.of_flat(b)).flat()
        except LayoutError:
            pass
    return a, b, c


@st.composite
def flat_pairs(draw):
    """Random flat ``a`` and ``b``, with zero strides and unit modes: ``b``
    is random, a rearrangement of ``a``'s modes, or ``a`` coalesced."""
    shapes = st.lists(st.integers(1, 4), max_size=4)

    def strides(n):
        return draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))

    a_shape = draw(shapes)
    a = _flat(a_shape, strides(len(a_shape)))
    how = draw(st.sampled_from(("random", "permuted", "coalesced")))
    if how == "coalesced":
        return a, a.coalesce()
    b_shape = draw(st.permutations(a_shape)) if how == "permuted" else draw(shapes)
    return a, _flat(b_shape, strides(len(b_shape)))


@st.composite
def complement_pairs(draw):
    """Random flat ``a`` and a ``b`` that is its complement when it has one,
    or random, zero strides and unit modes included."""
    a, b = draw(flat_pairs())
    if draw(st.booleans()):
        try:
            b = a.complement()
        except LayoutError:
            pass
    return a, b


class TestFalsePaths:
    @given(flat_pairs())
    def test_functions_equal_is_pointwise(self, ab):
        a, b = ab
        want = a.size() == b.size() and all(a(x) == b(x) for x in range(a.size()))
        assert functions_equal(a, b) == want

    @given(complement_pairs())
    def test_check_complement_is_a_sorted_range(self, ab):
        a, b = ab
        both = FlatLayout(a.shape + b.shape, a.stride + b.stride)
        n = both.size()
        want = sorted(both(x) for x in range(n)) == list(range(n))
        assert check_complement(a, b) == want
        assert check_complement(a, b, n) == want
        assert not check_complement(a, b, n + 1)


class TestCheckCompose:
    @given(compose_triples())
    def test_agrees_with_pointwise_evaluation(self, abc):
        a, b, c = abc
        want = all(c(x) == b(a(x)) for x in range(a.size()))
        assert check_compose(a, b, c) == want

    def test_wrong_composite_of_right_size(self):
        a = Layout(((4, 4), 4), ((16, 1), 4))
        b = Layout((8, 64), (64, 1))
        right = a.compose(b).flat()
        wrong = FlatLayout(right.shape, right.stride[:-1] + (right.stride[-1] + 1,))
        assert check_compose(a, b, right)
        assert not check_compose(a, b, wrong)

    def test_point_outside_second_domain(self):
        a, b = FlatLayout((4,), (2,)), FlatLayout((4,), (1,))
        # a(2) = 4 is the first point outside b's domain
        with pytest.raises(LayoutError, match=r"index 4 out of range for shape \(4,\)"):
            check_compose(a, b, FlatLayout((4,), (2,)))
        # an earlier point that differs decides first, as pointwise
        assert not check_compose(a, b, FlatLayout((4,), (1,)))

    def test_overflow(self):
        # in-range operands whose evaluation overflows: b(a(2)) = c(2) = 2^63,
        # and no earlier point differs
        a, b = FlatLayout((3,), (1,)), FlatLayout((3,), (2**62,))
        with pytest.raises(ArithmeticOverflowError):
            check_compose(a, b, b)
        # an entry beyond the range is refused where it enters
        with pytest.raises(ArithmeticOverflowError):
            FlatLayout((2,), (2**63,))

    def test_cap_counts_the_first_layout(self):
        a = FlatLayout((4096,), (1,))
        with pytest.raises(OracleCapError):
            check_compose(a, a, a, cap=100)
        assert check_compose(FlatLayout((64,), (1,)), FlatLayout((4096,), (1,)), None, cap=100)


class TestExhaustiveSearch:
    def test_finds_exactly_the_complement(self):
        a = FlatLayout((2, 2), (2, 8))
        assert exhaustive_complement_search(a, 16) == [FlatLayout((2, 2), (1, 4))]

    def test_empty_when_nothing_fits(self):
        assert exhaustive_complement_search(FlatLayout((3,), (1,)), 7) == []
        assert exhaustive_complement_search(FlatLayout((2,), (3,)), 4) == []
        # cosize 6 exceeds n = 4, although n is a multiple of the size
        assert exhaustive_complement_search(FlatLayout((2, 2), (1, 4)), 4) == []

    def test_cap(self):
        with pytest.raises(OracleCapError):
            exhaustive_complement_search(FlatLayout((2,), (1,)), 64, cap=32)

    def test_non_integer_size_is_refused(self):
        # as complement(n) and check_complement(n=...) refuse it, bool included
        a = FlatLayout((4,), (1,))
        for n in (2.5, True, "32", None):
            with pytest.raises(LayoutError) as refused:
                exhaustive_complement_search(a, n)
            assert str(refused.value) == f"complement size {n!r} in (4):(1) is not an integer"
            if n is not None:  # the engine's complement takes None as no size
                with pytest.raises(LayoutError) as engine:
                    a.complement(n)
                assert str(engine.value) == str(refused.value)

    def test_full_cover(self):
        # the complement of a compact layout of full size is trivial
        a = FlatLayout((4,), (1,))
        assert exhaustive_complement_search(a, 4) == [FlatLayout((), ())]

    @given(tractable_flats(allow_zero=False, max_size=64, max_extent=64))
    def test_agrees_with_engine(self, l):
        if not l.is_complementable():
            return
        srt = l.squeeze().sort()
        n = srt.shape[-1] * srt.stride[-1] if srt.rank else 1
        found = exhaustive_complement_search(l, n)
        assert found == [l.complement(n)]
