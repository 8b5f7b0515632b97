"""Every predicate agrees with its operation: a layout is tractable exactly
when it has a standard representation, (n-)complementable exactly when its
complement (of size n) exists, compact exactly when that complement has size
1, and coalesced exactly when coalescing leaves it unchanged.  Also pins the
one place where tractability and the layout function part ways: unit modes."""

import random
from math import prod

import pytest

from layoutkit import (
    FlatLayout,
    Layout,
    LayoutError,
    NotTractableError,
    profile,
    substitute,
    standard_representation,
)

from generators import random_tractable_flat, random_tree

EDGE = [2**62, 2**63 - 1]


def _returns(op, *args):
    """The result of ``op(*args)``, or None when it is refused as undefined."""
    try:
        return op(*args)
    except LayoutError:
        return None


def _corpus(seed, count):
    """Flat layouts, mostly tractable, some broken or with entries at the
    64-bit edge, each also as a randomly nested layout."""
    rng = random.Random(seed)
    for _ in range(count):
        flat = random_tractable_flat(rng)
        shape, stride = list(flat.shape), list(flat.stride)
        r = rng.random()
        if r < 0.2 and shape:
            stride[rng.randrange(len(shape))] = rng.choice(EDGE + [0, 1, 3, 5])
        elif r < 0.4:
            shape.append(rng.choice(EDGE + [2]))
            stride.append(rng.choice(EDGE + [0, 1, 4, 2**61]))
        elif r < 0.5:
            shape.append(1)
            stride.append(rng.choice(stride + [3, 7] + EDGE))
        flat = FlatLayout(tuple(shape), tuple(stride))
        yield flat
        tree = random_tree(rng, flat.shape) if flat.rank else ()
        yield Layout(tree, substitute(flat.stride, profile(tree)))


def _sizes(flat):
    span = max((s * d for s, d in zip(flat.shape, flat.stride) if s != 1), default=1)
    multiples = [k * m for m in (prod(flat.shape), span) for k in (1, 2, 6)]
    return [0, 1, *multiples, 2**63 - 1, 2**63, 2**64]


@pytest.mark.parametrize("seed", [1, 2])
def test_each_predicate_agrees_with_its_operation(seed):
    for l in _corpus(seed, 600):
        flat = l.flat() if isinstance(l, Layout) else l
        assert l.is_tractable() == (_returns(standard_representation, flat) is not None)
        c = _returns(l.complement)
        assert l.is_complementable() == (c is not None)
        assert l.is_compact() == (c is not None and c.size() == 1)
        for n in _sizes(flat):
            assert l.is_n_complementable(n) == (_returns(l.complement, n) is not None)
        coalesced = _returns(l.coalesce)
        if coalesced is not None:
            assert l.is_coalesced() == (coalesced == l)


def test_named_cases():
    assert not Layout((), ()).is_coalesced()
    assert not Layout((2, ()), (1, ())).is_coalesced()
    assert Layout((2, ()), (1, ())).coalesce() == Layout(2, 1)
    assert not Layout(2, 1).is_n_complementable(2**64)
    # no product is taken past the last mode
    assert Layout(2**62, 4).complement() == Layout(4, 1)
    assert Layout((2**62, 2), (1, 2**62)).is_compact()


@pytest.mark.parametrize(
    "shape, stride", [((4, 1), (1, 3)), ((1, 4), (3, 1)), ((2, 1, 2), (1, 5, 2))]
)
def test_unit_mode_strides_count_toward_tractability(shape, stride):
    # Each of these has the function of 4:1, but a unit mode's stride breaks
    # the divisibility chain, and tractability is decided on the strides as
    # given.  So the layout has no standard representation and cannot come
    # first in a composition, although it composes as the second operand
    # (which is coalesced first) and is complementable (which ignores unit
    # modes).  Whether unit-mode strides should count is an open decision.
    l = Layout(shape, stride)
    assert not l.is_tractable()
    with pytest.raises(NotTractableError):
        standard_representation(l.flat())
    with pytest.raises(NotTractableError):
        l.compose(Layout(16, 1))
    assert Layout(4, 1).compose(l) == Layout(4, 1)
    assert l.is_complementable()
    assert l.coalesce() == Layout(4, 1)
