"""The exhaustive-evaluation ground truth itself."""

import copy
import itertools
import math
import operator
import pickle
import random
import struct
import sys
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from layoutkit import oracle, tuplecat
from layoutkit import (
    ArithmeticOverflowError,
    FlatLayout,
    FunctionTable,
    Layout,
    LayoutError,
    OracleCapError,
    check_complement,
    check_compose,
    colex_inv,
    exhaustive_complement_search,
    functions_equal,
    table_of,
)

from generators import random_edge_layout, random_tractable_flat, tractable_flats


class TestFunctionTable:
    def test_table_matches_pointwise_evaluation(self):
        l = FlatLayout((3, 4, 2), (2, 7, 0))
        assert table_of(l).values == tuple(l(x) for x in range(l.size()))

    def test_accepts_nested_layouts(self):
        l = Layout(((2, 2), 3), ((1, 2), 4))
        assert table_of(l).values == tuple(l(x) for x in range(12))

    def test_bijection_predicate(self):
        assert table_of(FlatLayout((3,), (1,))).is_bijection_onto_range()
        assert table_of(FlatLayout((), ())).is_bijection_onto_range()
        assert table_of(FlatLayout((1,), (0,))).is_bijection_onto_range()
        assert table_of(FlatLayout((2, 3), (3, 1))).is_bijection_onto_range()  # 0, 3, 1, 4, 2, 5
        # a repeated value, a value past the range
        assert not table_of(FlatLayout((2, 2), (1, 1))).is_bijection_onto_range()
        assert not table_of(FlatLayout((2,), (2,))).is_bijection_onto_range()

    @given(tractable_flats())
    def test_bijection_predicate_is_a_sorted_range(self, l):
        values = [l(x) for x in range(l.size())]
        assert table_of(l).is_bijection_onto_range() == (sorted(values) == list(range(len(values))))

    def test_the_constructor_is_table_of(self):
        for l in (Layout(((2, 2), 3), ((1, 2), 4)), FlatLayout((3, 4, 2), (2, 7, 0))):
            t = FunctionTable(l)
            assert type(t) is FunctionTable and t == table_of(l) and table_of(l) == t
            assert t.values == table_of(l).values and hash(t) == hash(table_of(l))
            assert FunctionTable(l, 24) == table_of(l, 24)
        with pytest.raises(OracleCapError, match="table of size 24 exceeds cap 23"):
            FunctionTable(l, 23)
        for cap in (None, "8", True, 24.0):
            with pytest.raises(LayoutError) as refused:
                FunctionTable(l, cap)
            assert str(refused.value) == f"cap {cap!r} is not an integer"

    def test_index_outside_the_domain_is_refused(self):
        t = table_of(Layout(4, 1))
        assert [t[x] for x in range(4)] == [0, 1, 2, 3]
        for x in (-1, 4, True, 1.0, "1", None):
            with pytest.raises(LayoutError) as refused:
                t[x]
            assert str(refused.value) == f"a table of size 4 has no index {x!r}"
        with pytest.raises(LayoutError, match="size 1 has no index 1"):
            table_of(FlatLayout((), ()))[1]

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

    def test_a_size_not_an_int_is_refused_with_b_given(self):
        # where n enters, before the cap, in the text of the engine's complement and the search
        for a, b in ((Layout(2, 1), Layout(2, 2)), (Layout(1, 0), Layout(1, 0))):
            for n in (4.0, True, "4"):
                with pytest.raises(LayoutError) as refused:
                    check_complement(a, b, n, cap=1)
                assert type(refused.value) is LayoutError
                want = f"complement size {n!r} in {a.flat()} is not an integer"
                assert str(refused.value) == want
                with pytest.raises(LayoutError) as engine:
                    check_complement(a, n=n)
                assert str(engine.value) == str(refused.value)

    def test_a_composite_of_the_wrong_size_answers_before_b_is_read(self):
        # b's size, 2^64, is past the signed 64-bit range: the composite's size decides first
        b = FlatLayout((2**62, 4), (1, 2**61))
        with pytest.raises(ArithmeticOverflowError):
            b.size()
        assert not check_compose(FlatLayout((4,), (1,)), b, FlatLayout((2,), (1,)))


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
        # the reference sums each coordinate's terms over itertools.product,
        # with no call per point: its cost stays well inside the deadline
        a, b = ab
        shape, stride = a.shape + b.shape, a.stride + b.stride
        n = math.prod(shape)
        points = itertools.product(*map(range, shape))
        want = sorted(sum(map(operator.mul, x, stride)) for x in points) == list(range(n))
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


def _values(l):
    """The table of ``l``, one point at a time in unbounded arithmetic."""
    return tuple(sum(map(operator.mul, colex_inv(l.shape, x), l.stride)) for x in range(l.size()))


def _outcome(f, *args):
    """The result of ``f(*args)``, or the type and text of its refusal."""
    try:
        return f(*args)
    except LayoutError as e:
        return type(e), str(e)


def _pointwise(a, b, c):
    """Whether ``c(x) == b(a(x))`` at every point, evaluated in order, when called."""
    return lambda: all(c(x) == b(a(x)) for x in range(a.size()))


#: the largest signed 64-bit int, the largest entry a layout takes
M = 2**63 - 1

#: (layout, word width): the largest value at and one past the top of each width
AT_WIDTHS = [
    (FlatLayout((2, 2), (1, top - 1)), w)
    for top, w in ((255, 1), (256, 2), (2**16 - 1, 2), (2**16, 4), (2**32 - 1, 4), (2**32, 8))
] + [
    (FlatLayout((2, 2, 2), (M, M, 1)), 8),  # largest 2^64 - 1
    (FlatLayout((2, 2, 2), (M, M, 2)), 16),  # largest 2^64
    # broadcast, unit and rank-0 modes beside wide ones
    (FlatLayout((1, 3, 2, 1, 2), (5, 0, 2**40, 7, 1)), 8),
    (FlatLayout((2, 3, 1, 2, 2), (M, 0, 9, M, 1)), 8),  # 2^64 - 1
    (FlatLayout((2, 3, 1, 2, 2), (M, 0, 9, M, 2)), 16),  # 2^64
    (FlatLayout((), ()), 1),
    (FlatLayout((3, 1), (0, 2**62)), 1),
]

#: one table of each word width, 1, 2, 4, 8 and 16 bytes: the largest value at the top of
#: each width to 8 bytes, and 2^64
EACH_WIDTH = {w: l for l, w in (AT_WIDTHS[i] for i in (0, 2, 4, 6, 7))}
#: the ``struct`` format of each word width that has one, the widths ``_packed`` keeps in
#: an ``array``
FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


class TestPackedWidths:
    @pytest.mark.parametrize("l, w", AT_WIDTHS)
    def test_tables_at_each_width_are_pointwise(self, l, w):
        words, want = _packed(l), _values(l)
        if w in FORMATS:
            assert type(words) is array and words.itemsize == w
        else:
            assert type(words) is tuple and _width(want) == w
            assert oracle._table(l, 8 * w) == _as_int(want, 8 * w)
        assert table_of(l).values == want
        assert table_of(l).is_bijection_onto_range() == (sorted(want) == list(range(len(want))))
        if max(want) <= M:
            assert want == tuple(l(x) for x in range(l.size()))

    def test_long_modes_on_short_blocks(self):
        # each mode doubles its copies, the last step cut to the copies left
        long_modes = (
            FlatLayout((4096,), (1,)),
            FlatLayout((4095,), (1,)),
            FlatLayout((4093,), (1,)),
            FlatLayout((2, 96, 5), (3, 7, 1000)),
            FlatLayout((1000, 3), (2**40, 1)),
            FlatLayout((257,), (2**50,)),
        )
        for l in long_modes:
            assert table_of(l).values == _values(l)

    def test_functions_equal_across_a_width_boundary(self):
        tables = [l for l, _ in AT_WIDTHS if l.size() == 4]
        for a, b in itertools.product(tables, repeat=2):
            assert functions_equal(a, b) == (_values(a) == _values(b))
        # one function written two ways, at a wide width
        a = FlatLayout((2, 2, 2), (2**61, 2**62, M))
        assert a.coalesce() == FlatLayout((4, 2), (2**61, M))
        assert functions_equal(a, a.coalesce())
        line = FlatLayout((4,), (2**40,))
        assert functions_equal(line, FlatLayout((2, 2), (2**40, 2**41)))
        assert not functions_equal(line, FlatLayout((2, 2), (2**40, 2**41 + 1)))

    def test_check_complement_at_each_width(self):
        for l, _ in AT_WIDTHS:
            for b in (FlatLayout((1,), (1,)), FlatLayout((2,), (1,)), FlatLayout((2,), (0,))):
                values = _values(FlatLayout(l.shape + b.shape, l.stride + b.stride))
                want = sorted(values) == list(range(len(values)))
                assert check_complement(l, b) == want
        # largest below n, but two words repeat
        assert not check_complement(FlatLayout((2,), (0,)), FlatLayout((2,), (1,)))
        assert check_complement(FlatLayout((2, 128), (256, 2)), FlatLayout((2,), (1,)))

    @pytest.mark.parametrize(
        "a, b, c",
        [
            # accepted pairs at widths 1, 2, 4 and 8: b is gathered at a's values
            (FlatLayout((2, 2), (1, 254)), FlatLayout((256,), (1,)), FlatLayout((2, 2), (1, 254))),
            (FlatLayout((2, 2), (1, 65535)), FlatLayout((2**17,), (1,)), FlatLayout((2, 2), (1, 65535))),
            (FlatLayout((2, 2), (1, 2**32)), FlatLayout((2, 2**32), (1, 2)), None),
            (FlatLayout((2, 2), (1, 2**40)), FlatLayout((2**41,), (2**21,)), None),
            (
                FlatLayout((2, 2), (1, 2**40)),
                FlatLayout((2**41,), (2**21,)),
                FlatLayout((2, 2), (2**21, 2**61 + 1)),
            ),
            # b's values pass M: refused at the first such point, or decided
            # by an earlier point that differs
            (FlatLayout((3,), (1,)), FlatLayout((3,), (2**62,)), FlatLayout((3,), (2**62,))),
            (FlatLayout((3,), (1,)), FlatLayout((3,), (2**62,)), FlatLayout((3,), (2**62 + 1,))),
            # a's values leave b's domain, at width 8 and past it
            (FlatLayout((2, 2), (1, 2**40)), FlatLayout((8,), (1,)), FlatLayout((2, 2), (1, 2))),
            (FlatLayout((2, 2), (1, 2**40)), FlatLayout((8,), (1,)), FlatLayout((2, 2), (2, 2))),
            (FlatLayout((2, 2, 2), (M, M, 2)), FlatLayout((2**62,), (1,)), FlatLayout((8,), (0,))),
            (FlatLayout((2, 2, 2), (1, M, M)), FlatLayout((4,), (1,)), FlatLayout((8,), (1,))),
        ],
    )
    def test_check_compose_is_pointwise(self, a, b, c):
        if c is None:
            c = Layout.of_flat(a).compose(Layout.of_flat(b)).flat()
        assert _outcome(check_compose, a, b, c) == _outcome(_pointwise(a, b, c))

    def test_cap_is_checked_before_packing(self, monkeypatch):
        def refuse(flat):
            raise AssertionError("a table was begun before the cap was checked")

        monkeypatch.setattr(oracle, "_largest", refuse)
        big, small = FlatLayout((2**20, 2**20), (1, 2**20)), FlatLayout((2,), (1,))
        calls = [
            (table_of, big),
            (functions_equal, big, big),
            (check_compose, big, big, big),
            (check_complement, big, small),
            (exhaustive_complement_search, small, 2**40),
        ]
        for f, *args in calls:
            with pytest.raises(OracleCapError):
                f(*args)

    def test_no_entry_reads_a_largest_value_twice(self, monkeypatch):
        # each layout's largest value is computed once per call and passed down
        seen, largest = [], oracle._largest

        def spy(flat):
            seen.append(flat)  # held, so no id is reused within a call
            return largest(flat)

        monkeypatch.setattr(oracle, "_largest", spy)
        a, b = FlatLayout((4, 2), (2, 1)), FlatLayout((8, 8), (1, 8))
        right = Layout.of_flat(a).compose(Layout.of_flat(b)).flat()
        calls = [
            (1, FunctionTable, a),
            (1, table_of, Layout((4, 2), (2, 1))),
            (2, functions_equal, a, FlatLayout((2, 4), (1, 2))),
            (3, check_compose, a, b, right),  # the gather
            (3, check_compose, a, b, None),
            (1, check_compose, a, FlatLayout((8, 8 * oracle._GATHER_SPAN), (1, 8)), right),
            (1, check_complement, a, FlatLayout((2,), (8,))),
            (1, check_complement, FlatLayout((4,), (1,)), None, 8),
            (1, exhaustive_complement_search, FlatLayout((2,), (1,)), 8),
        ]
        for count, f, *args in calls:
            seen.clear()
            f(*args)
            assert len(seen) == len({id(x) for x in seen}) == count, f


#: tables on both sides of 64 KiB, with odd extents, zero strides and unit modes in the
#: modes that take them past it
BYTE_ORDER = [
    FlatLayout((3, 1, 5, 7), (0, 11, 1, 5)),
    FlatLayout((4095, 1, 8), (1, 5, 4095)),  # 65,520 bytes
    FlatLayout((16384, 2), (1, 0)),  # 65,536 bytes, at the bound
    FlatLayout((16384, 3), (1, 0)),  # a zero-stride mode past it
    FlatLayout((5, 3001, 7), (1, 5, 15005)),  # an odd mode past it, at width 4
    FlatLayout((7, 1001, 3, 1), (2**40, 1, 0, 9)),  # width 8
    FlatLayout((999,), (2**50,)),
    FlatLayout((2, 2, 1, 2, 4096), (M, M, 3, 2, 1)),  # width 16, no struct format
]


def _pack(values, w, order):
    """``values`` as words of ``w`` bytes in byte order ``order``, by ``struct.pack``."""
    return struct.pack(f"{'<>'[order == 'big']}{len(values)}{FORMATS[w]}", *values)


def _width(values):
    """The fewest bytes, a power of two, that hold the largest of ``values``."""
    w = 1
    while max(values) >> 8 * w:
        w *= 2
    return w


def _packed(l):
    """``l``'s words as :func:`oracle._packed` builds them, from its size and largest value."""
    return oracle._packed(l, l.size(), oracle._largest(l))


def _as_int(values, bits):
    """``values`` as one int, word ``j`` of ``bits`` bits at bit ``bits·j``."""
    return int("".join(format(v, f"0{bits}b") for v in reversed(values)), 2)


class TestByteOrder:
    @pytest.mark.parametrize("l", BYTE_ORDER, ids=str)
    def test_packed_tables_are_words_in_native_order(self, l, monkeypatch):
        # word j is the value at x = j; a big-endian host swaps the bytes of each
        # word, and words past 8 bytes are a tuple of ints in either byte order
        words, values = _packed(l), _values(l)
        w = _width(values)
        assert tuple(words) == values
        for order in ("little", "big"):
            monkeypatch.setattr(sys, "byteorder", order)
            words = _packed(l)
            if w in FORMATS:
                assert words.itemsize == w and words.tobytes() == _pack(values, w, order)
            else:
                assert type(words) is tuple and words == values

    def test_a_table_is_one_int_at_every_length(self):
        # under 64 KiB and past it, a table is one int at the width it is built in: the
        # fewest bytes, a power of two, for _packed, the largest value's bit length too
        for l in BYTE_ORDER:
            values = _values(l)
            tight, bits = max(1, max(values).bit_length()), 8 * _width(values)
            assert bits // 2 < max(tight, 8) <= bits
            table = oracle._table(l, bits)
            assert type(table) is int and table == _as_int(values, bits)
            assert oracle._table(l, tight) == _as_int(values, tight)


def _variant(rng, a):
    """``a`` coalesced, with its modes reversed, or with one stride moved by one."""
    how = rng.randrange(3)
    if how == 0 or not a.shape:
        return a.coalesce()
    if how == 1:
        return FlatLayout(a.shape[::-1], a.stride[::-1])
    i = rng.randrange(len(a.shape))
    return FlatLayout(a.shape, a.stride[:i] + (a.stride[i] + 1,) + a.stride[i + 1 :])


class TestBitLengthWords:
    """``functions_equal`` compares the two largest values, then builds both tables as one
    int in words of the largest value's bit length."""

    @pytest.fixture
    def tables(self, monkeypatch):
        """Each ``_table`` call as ``(bits, table)``."""
        calls, table = [], oracle._table

        def spy(flat, bits):
            calls.append((bits, table(flat, bits)))
            return calls[-1][1]

        monkeypatch.setattr(oracle, "_table", spy)
        return calls

    def test_an_all_zero_function_has_one_bit_words(self, tables):
        assert functions_equal(FlatLayout((8, 4), (0, 0)), FlatLayout((32,), (0,)))
        assert tables == [(1, 0)] * 2
        tables.clear()
        # 10^6 points, past 64 KiB at 1 bit a point: one int of 1-bit words still
        assert functions_equal(FlatLayout((1000, 1000), (0, 0)), FlatLayout((10**6,), (0,)))
        assert tables == [(1, 0)] * 2

    def test_a_one_point_table(self, tables):
        assert functions_equal(FlatLayout((), ()), FlatLayout((1, 1), (5, 7)))
        assert tables == [(1, 0)] * 2

    def test_unequal_largest_values_build_no_table(self, tables):
        pairs = [
            (FlatLayout((4,), (1,)), FlatLayout((4,), (2,))),
            (FlatLayout((2, 2), (1, 254)), FlatLayout((2, 2), (1, 255))),  # 255 | 256: 1 | 2 bytes
            (FlatLayout((2, 4), (1, 2)), FlatLayout((2, 4), (2, 2))),  # 7 | 8: 3 | 4 bits
            (FlatLayout((2, 2), (2**62, 2**62)), FlatLayout((2, 2), (2**62, 2**62 + 1))),
        ]
        for a, b in pairs:
            assert not functions_equal(a, b) and not functions_equal(b, a)
        assert tables == []
        # one largest value, the modes swapped: both tables are built, in 3-bit words
        assert not functions_equal(FlatLayout((2, 4), (1, 2)), FlatLayout((4, 2), (2, 1)))
        assert [bits for bits, _ in tables] == [3, 3]

    @pytest.mark.parametrize(
        "d, n",
        [
            (2, 2**15),  # 16-bit words, exactly 64 KiB
            (2, 2**15 - 1),  # one word under it
            (3, 2**15),  # 17-bit words past it
        ],
        ids=str,
    )
    def test_tables_on_both_sides_of_64_kib(self, tables, d, n):
        l = FlatLayout((n,), (d,))
        split = FlatLayout((n // 2, 2), (d, d * (n // 2))) if n % 2 == 0 else FlatLayout((1, n), (5, d))
        assert functions_equal(l, split) and functions_equal(split, l)
        top = (n - 1) * d
        bits = max(1, top.bit_length())
        assert tables == [(bits, _as_int(_values(l), bits))] * 4
        tables.clear()
        if n % 2 == 0:  # one largest value, the values in another order
            swapped = FlatLayout((2, n // 2), (d * (n // 2), d))
            assert not functions_equal(l, swapped)
            assert len(tables) == 2

    def test_seeded_pairs_agree_with_their_values(self):
        # tractable flats, and 64-bit-edge layouts with every extent cut to at most 4, so
        # their words run past 64 bits; each against a variant of itself
        rng = random.Random(35)
        pairs = []
        for _ in range(1000):
            a = random_tractable_flat(rng)
            e = random_edge_layout(rng).flat()
            e = FlatLayout(tuple(min(s, 4) for s in e.shape), e.stride)
            pairs += [(a, _variant(rng, a)), (e, _variant(rng, e))]
        seen = set()
        for a, b in pairs:
            want = table_of(a).values == table_of(b).values
            assert functions_equal(a, b) == want, (a, b)
            seen.add((want, oracle._largest(a) == oracle._largest(b)))
        # equal, unequal of one largest value, and unequal largest values
        assert seen == {(True, True), (False, True), (False, False)}


#: (layout, word width) past AT_WIDTHS: tables past 64 KiB, at width 2 and at 16
PACKED = AT_WIDTHS + [(BYTE_ORDER[3], 2), (BYTE_ORDER[-1], 16)]


class TestPackedTable:
    @pytest.mark.parametrize("l, w", PACKED, ids=str)
    def test_a_packed_table_is_its_values(self, l, w):
        # table_of keeps the words of 1, 2, 4 and 8 bytes in an array, wider ones as a
        # tuple; either way it reads as the layout's values, by every reading
        t, values = table_of(l), _values(l)
        assert type(t._data) is (array if w in FORMATS else tuple)
        assert type(t.values) is tuple and t.values == values
        assert t == table_of(l) and table_of(l) == t and not t != table_of(l)
        assert hash(t) == hash((values,))
        assert repr(t) == f"FunctionTable(values={values!r})"
        for y in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(y) is FunctionTable and y == t and t == y and y.values == values
            assert type(y._data) is type(t._data)  # the words come back, not a tuple
            assert hash(y) == hash(t) and repr(y) == repr(t)
        assert t.size == len(values) and [t[x] for x in range(t.size)] == list(values)
        assert t.is_bijection_onto_range() == (sorted(values) == list(range(len(values))))
        # one more mode: the same values at t's points, then more
        other = table_of(FlatLayout(l.shape + (2,), l.stride + (1,)))
        assert other.values[: t.size] == values
        assert t != other and other != t and hash(t) != hash(other)

    @pytest.fixture
    def spied(self, monkeypatch):
        """Each read of ``FunctionTable.values`` that makes a tuple of ints, not the one held."""
        calls, values = [], FunctionTable.values

        def spy(table):
            out = values.fget(table)
            if out is not table._data:
                calls.append("values")
            return out

        monkeypatch.setattr(FunctionTable, "values", property(spy))
        return calls

    @pytest.mark.parametrize("l, w", PACKED, ids=str)
    def test_table_of_unpacks_nothing(self, spied, l, w):
        # the table and each point read from it make no tuple of ints: values alone
        # does, by one tuple() of an array, and a tuple past 8 bytes is itself
        t = table_of(l)
        last = t[t.size - 1]
        assert t.size == l.size() and last == _values(l)[-1]
        assert spied == []
        assert t.values == _values(l) and (t.values is t._data) == (w not in FORMATS)
        assert spied == (["values"] * 2 if w in FORMATS else [])

    @pytest.mark.parametrize("l, w", PACKED, ids=str)
    def test_packed_tables_compare_by_their_bytes(self, spied, l, w):
        # two table_of tables of one width compare by their bytes and unpack nothing,
        # equal or not (the modes reversed keep the largest value, so the width)
        r = FlatLayout(l.shape[::-1], l.stride[::-1])
        same = _values(r) == _values(l)
        t, again, other = table_of(l), table_of(l), table_of(r)
        spied.clear()
        assert t == again and again == t and not t != again
        assert (t == other) == (other == t) == same and (t != other) != same
        assert spied == []
        # by hash, values are read
        assert hash(t) == hash(again) == hash((_values(l),))
        assert (hash(other) == hash(t)) == same

    @pytest.mark.parametrize("w", EACH_WIDTH)
    def test_a_table_of_each_width_is_the_one_built_from_its_layout(self, w):
        # the constructor's table and table_of's are one, and pickle to it, words and all;
        # unequal both ways round to one of the same width whose middle points are swapped
        l = EACH_WIDTH[w]
        t, values = table_of(l), _values(l)
        built = FunctionTable(l)
        assert t == built and built == t and hash(t) == hash(built) == hash((values,))
        back = pickle.loads(pickle.dumps(t))
        assert back == built and back._data == t._data and back.values == values
        assert hash(back) == hash(t)
        other = table_of(FlatLayout(l.shape[::-1], l.stride[::-1]))
        assert other.values != values and sorted(other.values) == sorted(values)
        assert t != other and other != t
        assert (t[0], t[t.size - 1]) == (values[0], values[-1])

    def test_unequal_packed_tables_at_each_width(self):
        # the modes reversed keep the largest value, so the width: unequal at every one
        unequal = set()
        for l, w in PACKED:
            r = FlatLayout(l.shape[::-1], l.stride[::-1])
            if _values(r) != _values(l):
                assert table_of(l) != table_of(r) and not table_of(l) == table_of(r)
                unequal.add(w)
        assert unequal == {1, 2, 4, 8, 16}

    def test_equal_bytes_of_two_widths_are_unequal_tables(self):
        # (0, 0, 1, 1) in bytes and (0, 257) in 2-byte words are the same four bytes
        # in either byte order: arrays compare by their words, not their bytes
        a, b = table_of(FlatLayout((2, 2), (0, 1))), table_of(FlatLayout((2,), (257,)))
        assert a._data.tobytes() == b._data.tobytes() and a._data.typecode != b._data.typecode
        assert a != b and b != a and a.values != b.values

    def test_tables_past_64_kib_compare_by_their_bytes(self, spied):
        # no Python int per point: two arrays of one type code, which == compares
        # item by item in C, and values is not read
        l = FlatLayout((16384, 5), (1, 0))  # 163,840 bytes
        t, last = table_of(l), table_of(FlatLayout((16384, 5), (1, 1)))  # one width
        assert type(t._data) is type(last._data) is array
        assert t._data.typecode == last._data.typecode
        assert len(t._data.tobytes()) == 163840 > 1 << 16
        spied.clear()
        assert t == table_of(l) and t != last and last != t
        assert spied == []
        assert hash(t) == hash((_values(l),))


@pytest.mark.parametrize("cap", [None, "8", True, 2.0, 8.0])
def test_a_cap_that_is_not_an_int_is_refused(cap):
    # by every entry that reads it, before any table, before the past-cap check
    # and before an answer of False on unequal sizes or a mismatched n
    a, b = FlatLayout((4,), (1,)), FlatLayout((2,), (4,))
    calls = [
        (table_of, a),
        (functions_equal, a, a),
        (functions_equal, a, b),
        (check_compose, a, a, a),
        (check_complement, a, b),
        (check_complement, a, b, 9),
        (exhaustive_complement_search, a, 8),
    ]
    for f, *args in calls:
        with pytest.raises(LayoutError) as refused:
            f(*args, cap=cap)
        assert type(refused.value) is LayoutError
        assert str(refused.value) == f"cap {cap!r} is not an integer"


def test_cap_texts():
    # each past-cap refusal names its size and the cap, the search's its search space;
    # the cap is read before sizes that differ or a mismatched n answer False
    a = FlatLayout((4,), (1,))
    calls = [
        (table_of, (a,), "table of size 4"),
        (functions_equal, (a, a), "table of size 4"),
        (functions_equal, (a, FlatLayout((2,), (1,))), "table of size 4"),
        (check_compose, (a, a, a), "table of size 4"),
        (check_complement, (a, FlatLayout((2,), (4,))), "table of size 8"),
        (check_complement, (a, FlatLayout((2,), (4,)), 9), "table of size 8"),
        (exhaustive_complement_search, (a, 8), "search space of size 8"),
    ]
    for f, args, what in calls:
        with pytest.raises(OracleCapError) as refused:
            f(*args, cap=3)
        assert str(refused.value) == f"{what} exceeds cap 3"


def test_an_argument_not_a_layout_is_the_callers_error():
    # an argument of the wrong engine class is not checked: each entry point
    # fails as Python does on it and answers nothing, so no entry scans a type
    t, l = (2, 0, 1), Layout((2, 2), (1, 2))
    calls = [
        (table_of, t),
        (FunctionTable, t),
        (functions_equal, t, l),
        (functions_equal, l, t),
        (check_compose, t, l),
        (check_compose, l, t),
        (check_compose, l, l, t),
        (check_complement, t),
        (check_complement, l, t),
        (exhaustive_complement_search, t, 8),
    ]
    for f, *args in calls:
        with pytest.raises((AttributeError, TypeError)):
            f(*args)


def _random_flat(rng):
    """A small flat layout: a compact one with its modes permuted (a bijection),
    one stride of it changed, or random, with zero strides, unit modes and long
    odd modes."""
    shape = [rng.choice((1, 2, 3, 4, 5, 7)) for _ in range(rng.randrange(0, 5))]
    if rng.random() < 0.2:
        shape = shape[:1] + [rng.choice((255, 257, 1023, 4093))]
    pre = list(itertools.accumulate(shape, operator.mul, initial=1))[:-1]
    order = list(range(len(shape)))
    rng.shuffle(order)
    stride = [pre[i] for i in order]
    shape = [shape[i] for i in order]
    how = rng.choice(("compact", "changed", "random"))
    if how == "changed" and shape:
        stride[rng.randrange(len(shape))] = rng.choice((0, 1, 2, 3, 64))
    elif how == "random":
        stride = [rng.choice((0, 1, 2, 3, 5, 8, 12)) for _ in shape]
    return _flat(shape, stride)


class TestBitSetImage:
    def test_onto_agrees_with_distinct_words(self):
        rng = random.Random(29)
        layouts = [_random_flat(rng) for _ in range(2000)]
        layouts += [l for l, _ in AT_WIDTHS]
        layouts += [FlatLayout((2, 2), (1, 3)), FlatLayout((3, 2), (0, 3)), FlatLayout((4095,), (1,))]
        answers = set()
        for l in layouts:
            words = _packed(l)
            want = max(words) < len(words) and len(set(words)) == len(words)
            assert oracle._onto(l, l.size()) == want, l
            answers.add((want, max(words) < len(words)))
        # bijections, repeated values below n, and a largest value at or past n
        assert answers == {(True, True), (False, True), (False, False)}

    def test_the_cap_is_read_before_onto(self, monkeypatch):
        def refuse(flat, n):
            raise AssertionError("_onto was called before the cap was read")

        monkeypatch.setattr(oracle, "_onto", refuse)
        with pytest.raises(OracleCapError) as refused:
            check_complement(FlatLayout((64,), (2**62,)), FlatLayout((), ()), cap=32)
        assert str(refused.value) == "table of size 64 exceeds cap 32"
        with pytest.raises(OracleCapError) as refused:
            exhaustive_complement_search(FlatLayout((1,), (1,)), 64, cap=32)
        assert str(refused.value) == "search space of size 64 exceeds cap 32"

    @pytest.mark.parametrize("w", EACH_WIDTH)
    def test_words_are_a_tuple(self, w):
        # the words read as values are a tuple at each width
        l = EACH_WIDTH[w]
        values = table_of(l).values
        assert type(values) is tuple and values == _values(l)
        assert max(values) == (2 ** (8 * w) - 1 if w in FORMATS else 2**64)


class TestGather:
    @pytest.fixture
    def spied(self, monkeypatch):
        """``check_compose`` and the layouts it calls, in order: the gather calls none, and the
        point-by-point path calls the composite, then ``a``, then ``b``, at each point."""
        calls, inside, call = [], [], tuplecat._LayoutFunction.__call__

        def spy(layout, x):
            if inside:  # the reference's own calls are not counted
                calls.append(layout)
            return call(layout, x)

        def checked(*args):
            inside.append(True)
            try:
                return check_compose(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(tuplecat._LayoutFunction, "__call__", spy)
        return checked, calls

    def test_gather_of_one_point_and_of_more(self, spied):
        # one point of a gathers one word, wrapped as a tuple; two or more, a tuple
        check, calls = spied
        one, b = FlatLayout((), ()), FlatLayout((3,), (5,))
        assert check(one, b, FlatLayout((1,), (7,))) and check(FlatLayout((1, 1), (2, 9)), b, one)
        a = FlatLayout((2,), (1,))
        assert check(a, b, FlatLayout((2,), (5,))) and not check(a, b, FlatLayout((2,), (6,)))
        a = FlatLayout((2, 2), (2, 1))  # b(a(x)) = 0, 10, 5, 15
        assert check(a, FlatLayout((4,), (5,)), FlatLayout((2, 2), (10, 5)))
        assert not check(a, FlatLayout((4,), (5,)), FlatLayout((2, 2), (5, 10)))
        assert calls == []

    def test_gather(self, spied):
        check, calls = spied
        a, b = Layout(((4, 4), 4), ((16, 1), 4)), Layout((8, 64), (64, 1))
        right = a.compose(b).flat()
        wrong = FlatLayout(right.shape, right.stride[:-1] + (right.stride[-1] + 1,))
        for c in (right, wrong, FlatLayout((64,), (0,))):
            assert _outcome(check, a, b, c) == _outcome(_pointwise(a, b, c))
        # a of one point gathers one value
        one = FlatLayout((), ())
        assert check(one, FlatLayout((3,), (5,)), FlatLayout((1,), (7,)))
        assert calls == []

    def test_second_layout_many_times_larger(self, spied, monkeypatch):
        # b is tabulated for a gather up to _GATHER_SPAN points per point of a;
        # past that, the layouts are called at a's points alone, and no table is built
        check, calls = spied
        tables, packed = [], oracle._packed

        def spy(flat, *rest):
            tables.append(flat)
            return packed(flat, *rest)

        monkeypatch.setattr(oracle, "_packed", spy)
        a, c, n = FlatLayout((4,), (1,)), FlatLayout((4,), (3,)), 4 * oracle._GATHER_SPAN
        at, past = FlatLayout((n,), (3,)), FlatLayout((n + 1,), (3,))
        assert check(a, at, c) and calls == [] and tables == [a, at, c]
        tables.clear()
        assert check(a, past, c)
        assert calls == [c, a, past] * 4 and tables == []

    def test_second_layout_over_the_cap(self, spied):
        check, calls = spied
        a, b = FlatLayout((4,), (3,)), FlatLayout((64,), (2,))
        right, wrong = FlatLayout((4,), (6,)), FlatLayout((4,), (7,))
        assert check(a, b, right, 16)
        assert calls == [right, a, b] * 4
        calls.clear()
        # the wrong composite first differs at x = 1, where the answer stops
        assert not check(a, b, wrong, 16)
        assert calls == [wrong, a, b] * 2

    @pytest.mark.parametrize(
        "a, b, c",
        [
            # a(2) = 4 leaves b's domain before any point differs: refused
            (FlatLayout((4,), (2,)), FlatLayout((4,), (1,)), FlatLayout((2, 2), (2, 9))),
            # a(1) differs first, before a(2) = 4 leaves b's domain
            (FlatLayout((4,), (2,)), FlatLayout((4,), (1,)), FlatLayout((4,), (1,))),
            # b(a(2)) = 2^63 is past the 64-bit range
            (FlatLayout((3,), (1,)), FlatLayout((3,), (2**62,)), FlatLayout((3,), (2**62,))),
        ],
    )
    def test_points_the_gather_cannot_read(self, spied, a, b, c):
        check, calls = spied
        assert _outcome(check, a, b, c) == _outcome(_pointwise(a, b, c))
        assert calls and calls == ([c, a, b] * len(calls))[: len(calls)]
