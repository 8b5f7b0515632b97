"""Flat layouts: evaluation, restriction, sorting, coalescing, complements."""

from math import prod

import pytest
from hypothesis import given

from layoutkit import (
    ArithmeticOverflowError,
    FlatLayout,
    Layout,
    LayoutError,
    NotComplementableError,
    colex,
    colex_inv,
    column_major,
    concat_flat,
    table_of,
)

from generators import seeds, tractable_flats


class TestConstruction:
    def test_rank_mismatch(self):
        with pytest.raises(LayoutError):
            FlatLayout((2, 3), (1,))

    def test_bad_entries(self):
        with pytest.raises(LayoutError):
            FlatLayout((0, 3), (1, 1))
        with pytest.raises(LayoutError):
            FlatLayout((2,), (-1,))

    def test_lists_are_kept_as_tuples(self):
        l = FlatLayout([4, 2], [2, 8])
        assert type(l.shape) is type(l.stride) is tuple
        assert l == FlatLayout((4, 2), (2, 8)) and hash(l) == hash(FlatLayout((4, 2), (2, 8)))
        assert str(l) == "(4,2):(2,8)" and l.cosize() == 15
        assert concat_flat([l, FlatLayout([3], [1])]) == FlatLayout((4, 2, 3), (2, 8, 1))
        assert hash(FlatLayout([4], [1])) == hash(FlatLayout((4,), (1,)))
        # anything else that is not a tuple is refused before its length is taken
        refused = [
            ((4, 2), "shape must be a tuple or list, not int"),
            ((None, None), "shape must be a tuple or list, not NoneType"),
            (((4,), 2), "stride must be a tuple or list, not int"),
        ]
        for args, text in refused:
            with pytest.raises(LayoutError) as raised:
                FlatLayout(*args)
            assert type(raised.value) is LayoutError and str(raised.value) == text

    def test_size_cosize(self):
        l = FlatLayout((7, 2), (2, 1))
        assert l.size() == 14
        assert l.cosize() == 14
        assert l.flat() is l  # a flat layout is its own flat form
        empty = FlatLayout((), ())
        assert empty.size() == 1
        assert empty.cosize() == 1
        assert concat_flat([FlatLayout((3,), (5,)), FlatLayout((5,), (1,))]).cosize() == 15


def _outcome(call, *args):
    """The result of ``call(*args)``, or the type of the :class:`LayoutError` it raised."""
    try:
        return call(*args)
    except LayoutError as exc:
        return type(exc)


class TestEvaluation:
    def test_eval_coord(self):
        assert FlatLayout((2, 3), (1, 5)).eval_coord((1, 2)) == 11
        assert FlatLayout((2, 2), (64, 2)).eval_coord((1, 1)) == 66

    def test_eval_linear(self):
        assert FlatLayout((2, 3), (1, 5))(3) == 6
        assert FlatLayout((4, 2, 2), (3, 3, 100))(9) == 103

    def test_out_of_range(self):
        with pytest.raises(LayoutError):
            FlatLayout((2, 3), (1, 5)).eval_coord((2, 0))
        with pytest.raises(LayoutError):
            FlatLayout((2, 3), (1, 5))(6)
        with pytest.raises(LayoutError, match="coordinate rank 2 != 1"):
            FlatLayout((2,), (1,)).eval_coord((0, 0))

    # shapes whose product exceeds 2^63-1: each reader agrees with exact
    # Python-int arithmetic wherever the index and the answer fit in 64 bits,
    # and refuses otherwise
    @pytest.mark.parametrize(
        "shape, stride",
        [
            ((2**62, 4), (1, 2**61)),
            ((2**62, 4), (3, 1)),
            ((4, 2**62), (2**61, 1)),
            ((2**61, 2, 4), (2, 2**62, 1)),
        ],
    )
    def test_beyond_a_64_bit_product(self, shape, stride):
        top, n = 2**63 - 1, prod(shape)
        layouts = (FlatLayout(shape, stride), Layout(shape, stride))
        for x in (0, 1, n // shape[-1] - 1, n - 1, top, top + 1, n, -1):
            if not 0 <= x < n:
                assert _outcome(colex_inv, shape, x) is LayoutError  # out of range
                assert [_outcome(l, x) for l in layouts] == [LayoutError] * 2
                continue
            coord = tuple(x // prod(shape[:i]) % s for i, s in enumerate(shape))
            value = sum(c * d for c, d in zip(coord, stride))
            fits = x <= top
            assert _outcome(colex_inv, shape, x) == (coord if fits else ArithmeticOverflowError)
            assert _outcome(colex, shape, coord) == (x if fits else ArithmeticOverflowError)
            want = value if value <= top else ArithmeticOverflowError
            for l in layouts:
                assert _outcome(l.eval_coord, coord) == want
                assert _outcome(l, x) == (want if fits else ArithmeticOverflowError)

    def test_beyond_a_64_bit_product_examples(self):
        assert colex((2**62, 4), (1, 0)) == 1
        assert colex((4, 2**62), (3, 1)) == 7
        assert colex_inv((2**62, 4), 5) == (5, 0)
        assert Layout((2**62, 4), (1, 2**61))(1) == 1
        with pytest.raises(
            ArithmeticOverflowError,
            match=r"index 9223372036854775808 in \(4611686018427387904, 4\) exceeds",
        ):
            colex_inv((2**62, 4), 2**63)

    def test_colex_takes_no_product_of_the_whole_shape(self):
        # a rank-100,000 shape: Horner's rule keeps every partial value at
        # most the answer, so no multi-million-bit integer is built
        shape = (2,) * 100_000
        coord = (1,) + (0,) * (len(shape) - 1)
        assert colex(shape, coord) == 1
        assert colex_inv(shape, 1) == coord
        with pytest.raises(ArithmeticOverflowError):
            colex(shape, (0,) * 63 + (1,) + (0,) * (len(shape) - 64))


    # a coordinate, an index or a mode index is checked where it enters, like
    # an entry: one whose type is not int is refused before any arithmetic
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Layout(4, 1)(2.5),
            lambda: Layout(4, 1)(True),
            lambda: Layout(4, 1)("2"),
            lambda: Layout((4, 2), (1, 4)).eval_coord((1.5, 1)),
            lambda: FlatLayout((2, 3), (1, 2)).permute((1.0, 0)),
            lambda: FlatLayout((2, 3), (1, 2)).restrict((1.0,)),
            lambda: FlatLayout((2, 3), (1, 2)).restrict((True,)),
            lambda: colex((4,), (1.5,)),
            lambda: colex_inv((4,), 2.0),
        ],
        ids=[
            "index-float", "index-bool", "index-string", "coordinate-float",
            "permute-float", "restrict-float", "restrict-bool", "colex-float",
            "colex-inv-float",
        ],
    )
    def test_non_integer_refused(self, call):
        with pytest.raises(LayoutError, match="is not an integer"):
            call()


class TestRestriction:
    def test_restrict(self):
        assert FlatLayout((3, 6), (10, 5)).restrict([1]) == FlatLayout((6,), (5,))
        with pytest.raises(LayoutError, match="mode index 3 out of range for rank 2"):
            FlatLayout((3, 6), (10, 5)).restrict((3,))

    def test_squeeze(self):
        assert FlatLayout((64, 64, 1), (1, 64, 0)).squeeze() == FlatLayout(
            (64, 64), (1, 64)
        )

    def test_filter_zeros(self):
        assert FlatLayout((3, 2), (12, 0)).filter_zeros() == FlatLayout((3,), (12,))
        assert FlatLayout((3, 8, 8, 8), (16, 0, 0, 0)).filter_zeros() == FlatLayout(
            (3,), (16,)
        )

    def test_permute(self):
        assert FlatLayout((4, 2), (12, 2)).permute([1, 0]) == FlatLayout((2, 4), (2, 12))
        with pytest.raises(LayoutError):
            FlatLayout((4, 2), (12, 2)).permute([0, 0])

    @given(tractable_flats())
    def test_squeeze_preserves_function(self, l):
        assert table_of(l.squeeze()).values == table_of(l).values


class TestSort:
    def test_examples(self):
        assert FlatLayout((2, 4, 8, 16), (64, 1, 2, 4)).sort() == FlatLayout(
            (4, 8, 16, 2), (1, 2, 4, 64)
        )
        # ties broken by shape, stably
        assert FlatLayout((5, 32, 16), (1, 5, 5)).sort() == FlatLayout(
            (5, 16, 32), (1, 5, 5)
        )

    @given(tractable_flats())
    def test_sort_permutes_image(self, l):
        assert sorted(table_of(l.sort()).values) == sorted(table_of(l).values)


class TestCoalesce:
    def test_examples(self):
        assert FlatLayout((2, 2, 2, 2, 2), (8, 16, 1024, 2048, 4096)).coalesce() == (
            FlatLayout((4, 8), (8, 1024))
        )
        assert FlatLayout((3, 4, 1, 5), (1, 8, 3, 32)).coalesce() == FlatLayout(
            (3, 20), (1, 8)
        )
        assert FlatLayout((), ()).coalesce() == FlatLayout((), ())

    @given(tractable_flats())
    def test_preserves_function(self, l):
        assert table_of(l.coalesce()).values == table_of(l).values

    @given(tractable_flats())
    def test_result_is_coalesced(self, l):
        c = l.coalesce()
        assert c.rank == 0 or c.is_coalesced()
        assert c.coalesce() == c

    @given(tractable_flats(), seeds())
    def test_function_equality_matches_coalesce(self, l, rng):
        # splitting a mode in two leaves the function, hence the coalesce,
        # unchanged
        if l.rank == 0:
            return
        i = rng.randrange(l.rank)
        s, d = l.shape[i], l.stride[i]
        f = next(f for f in (2, 3, 5, 7, s) if s % f == 0) if s > 1 else 1
        split = FlatLayout(
            l.shape[:i] + (f, s // f) + l.shape[i + 1 :],
            l.stride[:i] + (d, f * d) + l.stride[i + 1 :],
        )
        assert table_of(split).values == table_of(l).values
        assert split.coalesce() == l.coalesce()


class TestCompact:
    def test_examples(self):
        assert FlatLayout((3, 6), (1, 3)).is_compact()
        assert not FlatLayout((3, 6), (2, 6)).is_compact()
        assert FlatLayout((), ()).is_compact()

    @given(tractable_flats())
    def test_matches_bijectivity(self, l):
        table = table_of(l)
        bijective = (
            sorted(table.values) == list(range(l.size())) and l.cosize() == l.size()
        )
        assert l.is_compact() == bijective

    @given(seeds())
    def test_column_major(self, rng):
        shape = tuple(rng.choice([2, 3, 4]) for _ in range(rng.randrange(0, 4)))
        l = column_major(shape)
        assert l.is_compact()
        assert table_of(l).values == tuple(range(l.size()))

    def test_column_major_takes_no_product_of_the_whole_shape(self):
        assert column_major((4, 2**61)) == FlatLayout((4, 2**61), (1, 4))


class TestTractable:
    def test_examples(self):
        assert FlatLayout((2, 2, 2), (1, 2, 4)).is_tractable()
        assert not FlatLayout((2, 2, 2), (1, 7, 4)).is_tractable()

    @given(tractable_flats())
    def test_generator_is_tractable(self, l):
        assert l.is_tractable()


class TestComplement:
    def test_examples(self):
        assert FlatLayout((2, 2), (2, 8)).complement() == FlatLayout((2, 2), (1, 4))
        assert FlatLayout((3, 3, 8), (16, 96, 1)).complement() == FlatLayout(
            (2, 2), (8, 48)
        )
        assert FlatLayout((3, 10), (80, 4)).complement(2400) == FlatLayout(
            (4, 2, 10), (1, 40, 240)
        )

    def test_empty_squeeze(self):
        assert FlatLayout((1, 1), (5, 0)).complement() == FlatLayout((), ())
        # the walk skips unit modes, whose strides (here 3) need not chain
        assert FlatLayout((4, 1), (1, 3)).complement(8) == FlatLayout((2,), (4,))

    def test_complementable_despite_unsorted_modes(self):
        # sorted squeeze is (2,10):(4,80), which satisfies the chain
        l = FlatLayout((10, 2), (80, 4))
        assert l.is_complementable()
        b = l.complement()
        assert concat_flat([l, b]).is_compact()

    def test_not_complementable(self):
        with pytest.raises(NotComplementableError):
            FlatLayout((2, 2), (0, 1)).complement()
        with pytest.raises(NotComplementableError):
            FlatLayout((2, 2), (3, 4)).complement()

    def test_not_n_complementable(self):
        l = FlatLayout((2, 2), (2, 8))
        assert l.is_n_complementable(32)
        assert not l.is_n_complementable(24)
        with pytest.raises(NotComplementableError):
            l.complement(24)

    @given(tractable_flats(allow_zero=False))
    def test_complement_is_complement(self, l):
        if not l.is_complementable():
            return
        b = l.complement()
        assert concat_flat([l, b]).is_compact()
        assert b.rank == 0 or (b.is_coalesced() and b.sort() == b)

    @given(tractable_flats(allow_zero=False), seeds())
    def test_sized_complements_are_nested(self, l, rng):
        if not l.is_complementable():
            return
        srt = l.squeeze().sort()
        last = srt.shape[-1] * srt.stride[-1] if srt.rank else 1
        n1 = last * rng.choice([1, 2, 3])
        n2 = n1 * rng.choice([2, 3, 4])
        b1, b2 = l.complement(n1), l.complement(n2)
        t1, t2 = table_of(b1), table_of(b2)
        assert t2.values[: t1.size] == t1.values
        assert concat_flat([l, b2]).is_compact()
        assert l.size() * b2.size() == n2
