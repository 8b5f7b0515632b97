"""A second, symbolic reference: CuTe's flat composition and complement.

The oracle tabulates functions and stops at its cap of 10^6 points; the
reference here works on shapes and strides alone, at any size.  It follows
the algorithm of the CuTe layout-algebra documentation (NVIDIA/cutlass,
``media/docs/cute/02_layout_algebra.md``), written on flat ``(shape, stride)``
pairs of Python ints with no range check:

- ``composition(A, B)`` is ``x ↦ A(B(x))``.  For each mode ``s:d`` of ``B`` it
  divides ``d`` out of the modes of ``coalesce(A)`` but the last (a mode is
  used up where ``d`` is a multiple of its extent, and cut where its extent is
  a multiple of ``d``), then takes modes until their extents make ``s``.  The
  last mode of ``A`` extends without bound.
- ``complement(A, M)`` walks the modes of ``A`` by stride and fills each gap,
  then covers up to ``M`` with one last mode.
- ``logical_divide(A, B)`` is ``composition(A, (B, complement(B, size(A))))``
  and ``logical_product(A, B)`` is
  ``(A, composition(complement(A, size(A)·cosize(B)), B))``.

CuTe's ``composition(A, B)`` is ``B.compose(A)`` here.  The engine and the
reference are compared by ``coalesce()``: where the engine answers, the
reference must give the same coalesced layout.  The reference also answers
where the engine refuses: a first operand past the second's size, no mutual
refinement, a second operand whose size passes 2^63-1, a unit mode off the
stride chain, and a complement of a zero-stride mode or in a size that is no
multiple of the layout's span.  Those classes are out of the engine's scope,
and each is pinned by one example.
"""

import random
from math import prod

import pytest

from layoutkit import (
    ArithmeticOverflowError,
    Layout,
    LayoutError,
    NotComplementableError,
    NotComposableError,
    NotTractableError,
)

from generators import random_edge_layout, random_tractable_flat


class NotDivisible(Exception):
    """Neither of two extents divides the other: CuTe's divisibility condition fails."""


def coalesce(shape, stride):
    """Unit modes dropped, and each mode merged into the one before it where it
    continues it; ``(1,):(0,)`` where no mode is left."""
    modes = []
    for s, d in zip(shape, stride):
        if s == 1:
            continue
        if modes and modes[-1][0] * modes[-1][1] == d:
            modes[-1] = (modes[-1][0] * s, modes[-1][1])
        else:
            modes.append((s, d))
    return tuple(s for s, _ in modes) or (1,), tuple(d for _, d in modes) or (0,)


def shape_div(a, b):
    """CuTe's ``shape_div``: ``a / b`` where ``b`` divides ``a``, 1 where ``a`` divides ``b``."""
    if a % b == 0:
        return a // b
    if b % a == 0:
        return 1
    raise NotDivisible(f"neither of {a} and {b} divides the other")


def composition(outer, inner):
    """``x ↦ outer(inner(x))``, coalesced; ``outer``'s last mode extends without bound."""
    o_shape, o_stride = coalesce(*outer)
    shape, stride = [], []
    for s, d in zip(*inner):
        if s == 1 or d == 0:  # the mode maps every point to outer(0)
            shape.append(s)
            stride.append(0)
            continue
        rest, mode_s, mode_d = d, [], []
        for e, t in zip(o_shape[:-1], o_stride[:-1]):  # divide d out
            cut = shape_div(e, rest)
            mode_s.append(cut)
            mode_d.append(t * (e // cut))
            rest = shape_div(rest, e)
        mode_d.append(o_stride[-1] * rest)
        left = s
        for i, e in enumerate(mode_s):  # take modes until their extents make s
            mode_s[i] = min(e, left)
            left = shape_div(left, e)
        mode_s.append(left)
        shape += mode_s
        stride += mode_d
    return coalesce(shape, stride)


def complement(layout, size):
    """CuTe's complement of ``layout`` in ``size``: each gap below the modes, taken by
    stride, then one mode up to ``size``, coalesced."""
    shape, stride, covered = [], [], 1
    for d, s in sorted((d, s) for s, d in zip(*layout) if s != 1 and d != 0):
        if d % covered:
            raise NotDivisible(f"stride {d} is not a multiple of {covered}")
        shape.append(d // covered)
        stride.append(covered)
        covered = s * d
    shape.append(-(-size // covered))
    stride.append(covered)
    return coalesce(shape, stride)


def cosize(layout):
    return sum((s - 1) * d for s, d in zip(*layout)) + 1


def logical_divide(a, b):
    """``composition(a, (b, complement(b, size(a))))``."""
    c = complement(b, prod(a[0]))
    return composition(a, (b[0] + c[0], b[1] + c[1]))


def logical_product(a, b):
    """``(a, composition(complement(a, size(a)·cosize(b)), b))``, coalesced."""
    part = composition(complement(a, prod(a[0]) * cosize(b)), b)
    return coalesce(a[0] + part[0], a[1] + part[1])


def _pair(layout):
    flat = layout.flat()
    return flat.shape, flat.stride


def _engine(op, a, b):
    """The engine's coalesced result as a (shape, stride) pair, or None where it refuses."""
    try:
        if op == "compose":  # CuTe's composition(b, a)
            result = a.compose(b)
        elif op == "complement":
            result = a.complement(b)
        else:
            result = getattr(a, op)(b)
    except LayoutError:
        return None
    return coalesce(*_pair(result))  # on Python ints: a merged extent may pass 2^63-1


def _reference(op, a, b):
    """The reference's result, or None where it refuses."""
    try:
        if op == "compose":
            return composition(_pair(b), _pair(a))
        if op == "complement":
            return complement(_pair(a), b)
        return {"logical_divide": logical_divide, "logical_product": logical_product}[op](
            _pair(a), _pair(b)
        )
    except NotDivisible:
        return None


def _agree(pairs):
    """Each operation on each pair: the reference agrees wherever the engine answers.
    Returns the count of answers per operation and of pairs only the reference answers."""
    answered, only_reference = {}, {}
    for a, b in pairs:
        # a multiple of the extent that a's modes span, which the engine complements in
        span = max((s * d for s, d in zip(*_pair(a)) if s != 1), default=1)
        for op, second in (
            ("compose", b),
            ("complement", span * prod(_pair(b)[0])),
            ("logical_divide", b),
            ("logical_product", b),
        ):
            got, want = _engine(op, a, second), _reference(op, a, second)
            if got is not None:
                assert got == want, (op, a, second)
                answered[op] = answered.get(op, 0) + 1
            elif want is not None:
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
        assert op(a, b) == coalesce(*want), (op.__name__, a, b)


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
    assert _reference(op, a, b) == want


def test_the_reference_refuses_what_is_not_divisible():
    # CuTe's divisibility condition: a stride of the inner layout that neither divides nor
    # is divided by an extent of the outer one, and a complement of overlapping modes
    with pytest.raises(NotDivisible):
        composition(((4, 2), (1, 8)), ((2,), (3,)))
    with pytest.raises(NotDivisible):
        complement(((2, 2), (1, 1)), 8)
    assert _engine("compose", Layout(2, 3), Layout((4, 2), (1, 8))) is None
    assert _engine("complement", Layout((2, 2), (1, 1)), 8) is None
