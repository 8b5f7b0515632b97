"""Every predicate agrees with its operation: a layout is tractable exactly
when it has a standard representation, (n-)complementable exactly when its
complement (of size n) exists, compact exactly when that complement has size
1, and coalesced exactly when coalescing leaves it unchanged.  Also pins the
one place where tractability and the layout function part ways, unit modes,
and characterizes tractability on a bounded universe."""

import random
from itertools import permutations, product
from math import prod

import pytest

from layoutkit import (
    FlatLayout,
    Layout,
    LayoutError,
    NotTractableError,
    TupleMorphism,
    layout_of,
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
    # the divisibility chain.  Unit-mode strides count because a layout is
    # tractable exactly when it is the layout of a tuple morphism, and a
    # morphism gives every mode it carries, unit modes included, the product
    # of the codomain entries before it (see the characterization below).
    # So the layout has no standard representation and cannot come first in
    # a composition, although it composes as the second operand (which is
    # coalesced first) and is complementable (which ignores unit modes).
    l = Layout(shape, stride)
    assert not l.is_tractable()
    with pytest.raises(NotTractableError):
        standard_representation(l.flat())
    with pytest.raises(NotTractableError):
        l.compose(Layout(16, 1))
    assert Layout(4, 1).compose(l) == Layout(4, 1)
    assert l.is_complementable()
    assert l.coalesce() == Layout(4, 1)


def _chain(modes):
    """Some order of the (shape, stride, index) triples ``modes`` in which
    each stride is a multiple of s*d of the triple before it, or None."""
    for order in permutations(modes):
        for a, b in zip(order, order[1:]):
            if b[1] % (a[0] * a[1]) != 0:
                break
        else:
            return order
    return None


def _morphism_of_chain(shape, chain):
    """The tuple morphism read off a divisibility chain, unit modes kept:
    each mode adds the cofactor of its stride (unless 1) and its shape to
    the codomain; modes outside the chain go to the basepoint."""
    codomain, amap, prev = [], [0] * len(shape), 1
    for s, d, i in chain:
        if d != prev:
            codomain.append(d // prev)
        codomain.append(s)
        amap[i] = len(codomain)
        prev = s * d
    return TupleMorphism(shape, tuple(codomain), tuple(amap))


def test_tractability_characterized_on_a_bounded_universe():
    # every flat layout of rank <= 3 with shape entries 1..4 and strides
    # 0..12: tractable exactly when some order of its nonzero-stride modes,
    # unit modes included, is a divisibility chain; the morphism read off
    # that chain encodes the layout, so the layout is the layout of a tuple
    # morphism; and the standard representation encodes the layout with its
    # unit-mode strides set to 0
    layouts = tractable = 0
    for rank in range(4):
        for shape, stride in product(
            product(range(1, 5), repeat=rank), product(range(13), repeat=rank)
        ):
            flat = FlatLayout(shape, stride)
            modes = zip(shape, stride, range(rank))
            chain = _chain([mode for mode in modes if mode[1]])
            layouts += 1
            assert flat.is_tractable() == (chain is not None), flat
            if chain is None:
                continue
            tractable += 1
            assert layout_of(_morphism_of_chain(shape, chain)) == flat
            unit_free = tuple(0 if s == 1 else d for s, d in zip(shape, stride))
            assert layout_of(standard_representation(flat)) == FlatLayout(shape, unit_free)
    assert (layouts, tractable) == (143_365, 12_935)
    # the example of the docstring of FlatLayout.is_tractable
    f = _morphism_of_chain((4, 1), _chain([(4, 1, 0), (1, 4, 1)]))
    assert str(f) == "(4,1)--(1,2)-->(4,1)"
