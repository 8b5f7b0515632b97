"""The symbolic CuTe reference of ``cute_reference.py`` against the engine.

Where the engine answers a composition, divide or product, the reference must
give the same layout, shape and stride trees equal, nesting included; where it
answers a complement, the same coalesced layout.  The reference also answers where the engine refuses: a first operand past the
second's size, no mutual refinement, a second operand whose size passes
2^63-1, a unit mode off the stride chain, and a complement of a zero-stride
mode or in a size that is no multiple of the layout's span.  Those classes are
out of the engine's scope, and each is pinned by one example.
"""

import random
from collections import namedtuple

import pytest

from layoutkit import (
    ArithmeticOverflowError,
    Layout,
    NotComplementableError,
    NotComposableError,
    NotTractableError,
)

from cute_reference import (
    NotDivisible,
    agreement,
    coalesce,
    complement,
    composition,
    engine,
    flatten,
    logical_divide,
    logical_product,
    operations,
    reference,
)
from generators import random_edge_layout, random_layout, random_tractable_flat


def _agree(pairs):
    """Each operation on each pair: the reference agrees wherever the engine answers.
    Returns the count of answers per operation and of pairs only the reference answers."""
    answered, only_reference = {}, {}
    for a, b in pairs:
        for op, second in operations(a, b):
            found = agreement(op, a, second)
            assert found in ("agree", "reference only", "neither"), (op, a, second, found)
            if found == "agree":
                answered[op] = answered.get(op, 0) + 1
            elif found == "reference only":
                only_reference[op] = only_reference.get(op, 0) + 1
    return answered, only_reference


def test_the_reference_agrees_on_tractable_pairs():
    # seed 11 answers 741 compositions, 666 complements, 246 divides and 177 products;
    # 609 compositions only the reference answers
    rng = random.Random(11)
    pairs = [
        (Layout.of_flat(random_tractable_flat(rng)), Layout.of_flat(random_tractable_flat(rng)))
        for _ in range(2000)
    ]
    answered, only_reference = _agree(pairs)
    assert len(answered) == 4 and min(answered.values()) > 100, answered
    assert only_reference.get("compose", 0) > 300, only_reference


def test_the_reference_agrees_at_the_64_bit_edge():
    # seed 12 answers 103 compositions, 189 complements, 25 divides and 27 products;
    # 440 compositions only the reference answers
    rng = random.Random(12)
    pairs = [(random_edge_layout(rng, 2), random_edge_layout(rng)) for _ in range(1000)]
    answered, only_reference = _agree(pairs)
    assert len(answered) == 4 and min(answered.values()) > 10, answered
    assert only_reference.get("compose", 0) > 100, only_reference


def test_the_reference_agrees_by_mode_on_nested_pairs():
    # seed 13 answers 690 compositions, 705 complements, 230 divides and 187 products,
    # each nested exactly as the engine nests it
    rng = random.Random(13)
    pairs = [(random_layout(rng), random_layout(rng)) for _ in range(2000)]
    answered, _ = _agree(pairs)
    assert len(answered) == 4 and min(answered.values()) > 100, answered


def test_a_leaf_cut_in_two_is_nested_as_its_modes():
    # the README compose: the leaf 4 at stride 4 meets b's modes 8 and 64, so it is
    # the tuple of its two modes; the leaves 4 and 4 of the inner mode stay leaves
    a, b = Layout(((4, 4), 4), ((16, 1), 4)), Layout((8, 64), (64, 1))
    want = (((4, 4), (2, 2)), ((2, 64), (256, 1)))
    assert reference("compose", a, b) == engine("compose", a, b) == want
    assert agreement("compose", a, b) == "agree"
    # the same function nested otherwise disagrees
    assert reference("compose", a, b) != reference("compose", Layout.of_flat(a.flat()), b)


def test_a_namedtuple_node_agrees_with_a_plain_tuple():
    # the engine keeps the caller's node type where it cuts no leaf, the reference
    # builds plain tuples: the layouts are equal and print alike
    Pair = namedtuple("Pair", "x y")
    a, b = Layout(Pair(4, 8), Pair(1, 4)), Layout(32, 1)
    got, want = a.compose(b), Layout(*reference("compose", a, b))
    assert type(got.shape) is Pair and type(want.shape) is tuple
    assert got == want and str(got) == str(want) == "(4,8):(1,4)"
    for op in ("compose", "logical_divide", "logical_product"):
        assert agreement(op, a, b) == "agree"


def test_the_documented_examples():
    # CuTe's worked examples, as CuTe writes them (composition(A, B) = A ∘ B), flattened
    # and compared by coalesce
    cases = [
        (composition, ((6, 2), (8, 2)), ((4, 3), (3, 1)), ((2, 2, 3), (24, 2, 8))),
        (composition, ((20,), (2,)), ((5, 4), (4, 1)), ((5, 4), (8, 2))),
        (composition, ((10, 2), (16, 4)), ((5, 4), (1, 5)), ((5, 2, 2), (16, 80, 4))),
        (complement, ((4,), (2,)), 24, ((2, 3), (1, 8))),
        (complement, ((2, 2), (1, 6)), 24, ((3, 2), (2, 12))),
        (complement, ((4, 6), (1, 4)), 24, ((1,), (0,))),
        (logical_divide, ((4, 2, 3), (2, 1, 8)), ((4,), (2,)), ((2, 2, 2, 3), (4, 1, 2, 8))),
        (logical_product, ((2, 2), (4, 1)), ((6,), (1,)), ((2, 2, 2, 3), (4, 1, 2, 8))),
    ]
    for op, a, b, want in cases:
        assert coalesce(*map(flatten, op(a, b))) == coalesce(*want), (op.__name__, a, b)


@pytest.mark.parametrize(
    "op, a, b, refusal, want",
    [
        # a's cosize 8 passes b's size 4: b's last mode extends without bound
        ("compose", Layout(8, 1), Layout(4, 1), NotComposableError, ((8,), (1,))),
        # 6 against (2,4): the cut 2 leaves 3, which does not divide 4, yet CuTe reads
        # the last mode of b past its extent
        ("compose", Layout(6, 1), Layout((2, 4), (1, 4)), NotComposableError, ((2, 3), (1, 4))),
        # b's size 2^64 passes 2^63-1, and CuTe's composition never takes it
        ("compose", Layout(2, 1), Layout((4, 2**62), (1, 8)), ArithmeticOverflowError, ((2,), (1,))),
        # a unit mode at a stride off the chain: CuTe's composition passes it over
        ("compose", Layout((2, 1), (1, 3)), Layout(8, 1), NotTractableError, ((2,), (1,))),
        # a zero-stride mode: CuTe's complement passes it over
        ("complement", Layout((2, 2), (1, 0)), 8, NotComplementableError, ((4,), (2,))),
        # a size that is no multiple of 4: CuTe's complement rounds up
        ("complement", Layout(4, 1), 6, NotComplementableError, ((2,), (4,))),
    ],
    ids=["cosize", "no mutual refinement", "overflow at size(b)", "unit mode off the chain",
         "zero stride", "size no multiple"],
)
def test_what_only_the_reference_computes(op, a, b, refusal, want):
    # each class of operands the engine refuses and the reference computes: out of
    # the engine's scope, which this reference does not widen.  Divide and product
    # meet them through their complement and their composition
    with pytest.raises(refusal):
        getattr(a, op)(b)
    assert coalesce(*map(flatten, reference(op, a, b))) == want


def test_the_reference_refuses_what_is_not_divisible():
    # CuTe's divisibility condition: a stride of the inner layout that neither divides nor
    # is divided by an extent of the outer one, and a complement of overlapping modes
    with pytest.raises(NotDivisible):
        composition(((4, 2), (1, 8)), ((2,), (3,)))
    with pytest.raises(NotDivisible):
        complement(((2, 2), (1, 1)), 8)
    assert engine("compose", Layout(2, 3), Layout((4, 2), (1, 8))) is None
    assert engine("complement", Layout((2, 2), (1, 1)), 8) is None
