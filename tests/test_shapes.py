"""Nested tuples, profiles, and colexicographic (un)linearization."""

import pytest
from hypothesis import given, strategies as st

from layoutkit import (
    STAR,
    ArithmeticOverflowError,
    LayoutError,
    NotRefinementError,
    colex,
    colex_inv,
    congruent,
    depth,
    flatten,
    length,
    prefix_products,
    profile,
    rank,
    refines,
    relative_modes,
    size,
    substitute,
)
from layoutkit.shapes import checked_add, checked_mul

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


class TestRefinement:
    def test_refines_examples(self):
        assert refines((2, (2, 2)), 8)
        assert refines(((2, 2), (3, 3), (5, 5)), (4, 9, 25))
        assert not refines((8, 8), (4, 16))
        assert not refines((2, 2), (2, 2, 1))

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
