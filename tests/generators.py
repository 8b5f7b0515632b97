"""Seeded random generators and hypothesis strategies for the test suite.

Tractable flat layouts are built as a stride divisibility chain (each
stride a multiple of the previous mode's shape * stride), optionally
decorated with broadcast (stride-0) and unit modes, then shuffled.
"""

from __future__ import annotations

import random
from math import prod
from typing import List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from layoutkit import (
    FlatLayout,
    Layout,
    Nested,
    TupleMorphism,
    flatten,
    profile,
    substitute,
)

SMALL_SHAPES = [2, 2, 2, 3, 3, 4, 5, 6, 8]
SMOOTH = [2, 3, 4, 5, 6, 8, 9, 12]


def random_tractable_flat(
    rng: random.Random,
    max_size: int = 4096,
    max_extent: int = 4096,
    allow_zero: bool = True,
    allow_unit: bool = True,
    shuffle: bool = True,
    min_chain: int = 0,
) -> FlatLayout:
    """A random tractable flat layout with size <= max_size whose positive
    strides keep s_m * d_m <= max_extent (so complements stay small)."""
    shape: List[int] = []
    stride: List[int] = []
    size = 1
    d = rng.choice([1, 1, 1, 2, 3, 4])
    for _ in range(max(min_chain, rng.randrange(0, 4))):
        s = rng.choice(SMALL_SHAPES)
        if size * s > max_size or s * d > max_extent:
            break
        shape.append(s)
        stride.append(d)
        size *= s
        d = s * d * rng.choice([1, 1, 2, 3])
    chain_strides = list(stride)
    if allow_zero:
        for _ in range(rng.randrange(0, 3)):
            s = rng.choice(SMALL_SHAPES)
            if size * s <= max_size:
                shape.append(s)
                stride.append(0)
                size *= s
    if allow_unit:
        for _ in range(rng.randrange(0, 2)):
            # unit modes may repeat a chain stride without breaking the chain
            shape.append(1)
            stride.append(rng.choice(chain_strides + [0, 0]))
    order = list(range(len(shape)))
    if shuffle:
        rng.shuffle(order)
    return FlatLayout(tuple(shape[i] for i in order), tuple(stride[i] for i in order))


def random_edge_layout(rng: random.Random, max_chain: int = 4) -> Layout:
    """A random nested layout at the 64-bit edge.  Every entry is at most 2^62, but its
    size, its cosize and the strides a composite reads off it may lie past 2^63-1, far
    beyond the oracle's cap.  A chain of up to ``max_chain`` modes starts at a unit, odd or
    power-of-two stride; each next stride is a multiple of the last shape * stride, while
    that is at most 2^62.  Zero-stride modes and unit modes are added, a unit mode at a
    chain stride, at 0 or at an odd stride (which may break tractability), then shuffled."""

    def extent():
        return rng.choice([2 ** rng.randrange(1, 63), 2 ** rng.randrange(1, 32), rng.choice(SMOOTH)])

    shape: List[int] = []
    stride: List[int] = []
    d = rng.choice([1, 1, rng.choice((3, 5, 7)), 2 ** rng.randrange(63)])
    for _ in range(rng.randint(1, max_chain)):
        if d > 2**62:
            break
        shape.append(extent())
        stride.append(d)
        d = shape[-1] * d * rng.choice([1, 1, 2, 3, 2 ** rng.randrange(32)])
    for _ in range(rng.randrange(2)):
        shape.append(extent())
        stride.append(0)
    for _ in range(rng.randrange(2)):
        shape.append(1)
        stride.append(rng.choice(stride + [0, rng.choice((3, 5, 7))]))
    order = list(range(len(shape)))
    rng.shuffle(order)
    tree = random_tree(rng, tuple(shape[i] for i in order))
    return Layout(tree, substitute(tuple(stride[i] for i in order), profile(tree)))


def non_degenerate(flat: FlatLayout) -> FlatLayout:
    """Zero the stride on every unit-shape mode."""
    return FlatLayout(
        flat.shape, tuple(0 if s == 1 else d for s, d in zip(flat.shape, flat.stride))
    )


def random_tree(rng: random.Random, entries: Tuple[int, ...], depth: int = 0) -> Nested:
    """A random nested tuple whose flattening is ``entries``."""
    n = len(entries)
    if n == 1 and depth > 0 and rng.random() < 0.7:
        return entries[0]
    if depth >= 2 or n == 0:
        return tuple(entries)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, n))) if n > 1 else []
    out = []
    prev = 0
    for c in cuts + [n]:
        out.append(random_tree(rng, entries[prev:c], depth + 1))
        prev = c
    return tuple(out)


def random_refinement(
    rng: random.Random, coarse: Nested, flat: Optional[Sequence[int]] = None
) -> Nested:
    """A random tree refining ``coarse``.  Its leaves are ``flat`` when that
    is given (the flattening of a refinement of ``coarse``, unit entries
    inserted anywhere), else a random factorization of each entry with unit
    leaves among them.  Each entry of ``coarse`` takes at least one leaf,
    then leaves until their product is the entry, and the last takes the
    rest; its sub-tree is a :func:`random_tree` of them, up to three deep."""
    entries = flatten(coarse)
    if flat is None:
        flat = []
        for e in entries:
            for d in (2, 3, 5, 7):
                while e % d == 0 and e > d and rng.random() < 0.6:
                    flat.append(d)
                    e //= d
            flat.append(e)
        for _ in range(rng.randrange(3) if entries else 0):
            flat.insert(rng.randint(0, len(flat)), 1)
    parts = []
    k = 0
    for n, e in enumerate(entries, start=1):
        run: List[int] = []
        while not run or prod(run) < e or (n == len(entries) and k < len(flat)):
            run.append(flat[k])
            k += 1
        parts.append(random_tree(rng, tuple(run), rng.randrange(2)))
    return substitute(parts, profile(coarse))


def random_layout(rng: random.Random, **kwargs) -> Layout:
    """A random tractable nested layout."""
    flat = random_tractable_flat(rng, **kwargs)
    if flat.rank == 0:
        return Layout(1, 0)
    shape = random_tree(rng, flat.shape)
    return Layout(shape, substitute(flat.stride, profile(shape)))


def random_standard_morphism(
    rng: random.Random, max_size: int = 1000
) -> TupleMorphism:
    """A random non-degenerate standard-form tuple morphism: codomain built
    from (cofactor, shape) pairs with unit cofactors pruned, plus basepoint
    modes."""
    entries: List[int] = []
    image_modes: List[Tuple[int, int]] = []  # (shape, 1-based codomain position)
    csize = 1
    for _ in range(rng.randrange(0, 4)):
        s = rng.choice([2, 2, 3, 4, 5])
        cof = rng.choice([1, 1, 2, 3])
        if csize * s * cof > max_size:
            break
        if cof != 1:
            entries.append(cof)
        entries.append(s)
        image_modes.append((s, len(entries)))
        csize *= s * cof
    modes: List[Tuple[int, int]] = list(image_modes)
    for _ in range(rng.randrange(0, 3)):
        modes.append((rng.choice([1, 2, 3, 4]), 0))
    rng.shuffle(modes)
    return TupleMorphism(
        tuple(s for s, _ in modes), tuple(entries), tuple(a for _, a in modes)
    )


def random_morphism(
    rng: random.Random,
    domain: Optional[Tuple[int, ...]] = None,
    max_size: int = 1000,
) -> TupleMorphism:
    """A random tuple morphism; with ``domain`` given, a morphism out of it
    (each entry either dropped or carried to a fresh codomain position,
    interleaved with extra codomain entries)."""
    if domain is None:
        csize = 1
        cod: List[int] = []
        for _ in range(rng.randrange(0, 4)):
            t = rng.choice([2, 2, 3, 4, 5])
            if csize * t > max_size:
                break
            cod.append(t)
            csize *= t
        modes = [(cod[j], j + 1) for j in range(len(cod)) if rng.random() < 0.7]
        for _ in range(rng.randrange(0, 3)):
            modes.append((rng.choice([1, 2, 3]), 0))
        rng.shuffle(modes)
        return TupleMorphism(
            tuple(s for s, _ in modes), tuple(cod), tuple(a for _, a in modes)
        )

    items: List[Tuple[int, int]] = []  # (codomain entry, source position or 0)
    for j, s in enumerate(domain, start=1):
        if rng.random() < 0.8:
            items.append((s, j))
    for _ in range(rng.randrange(0, 3)):
        items.append((rng.choice([2, 3, 4]), 0))
    rng.shuffle(items)
    csize = 1
    kept: List[Tuple[int, int]] = []
    for e, src in items:
        if src == 0 and csize * e > max_size:
            continue
        kept.append((e, src))
        csize *= e
    amap = [0] * len(domain)
    for pos, (_, src) in enumerate(kept, start=1):
        if src:
            amap[src - 1] = pos
    return TupleMorphism(tuple(domain), tuple(e for e, _ in kept), tuple(amap))


def with_unit_entries(rng: random.Random, f: TupleMorphism) -> TupleMorphism:
    """``f`` with one or two unit entries inserted into its codomain, each
    hit by a new unit domain mode or left unhit."""
    items = [(t, j) for j, t in enumerate(f.codomain, start=1)]  # (entry, old position)
    for _ in range(rng.randrange(1, 3)):
        items.insert(rng.randrange(len(items) + 1), (1, 0))
    moved = {j: pos for pos, (_, j) in enumerate(items, start=1) if j}
    modes = [(s, 0 if a == 0 else moved[a]) for s, a in zip(f.domain, f.amap)]
    for pos, (_, j) in enumerate(items, start=1):
        if j == 0 and rng.random() < 0.5:
            modes.insert(rng.randrange(len(modes) + 1), (1, pos))
    return TupleMorphism(
        tuple(s for s, _ in modes), tuple(t for t, _ in items), tuple(a for _, a in modes)
    )


def random_composable_pair(
    rng: random.Random, max_size: int = 1000
) -> Tuple[TupleMorphism, TupleMorphism]:
    """(f, g) with codomain(f) == domain(g)."""
    g = random_morphism(rng, max_size=max_size)
    mid = g.domain
    modes = [(mid[j], j + 1) for j in range(len(mid)) if rng.random() < 0.7]
    for _ in range(rng.randrange(0, 3)):
        modes.append((rng.choice([1, 2, 3]), 0))
    rng.shuffle(modes)
    f = TupleMorphism(
        tuple(s for s, _ in modes), mid, tuple(a for _, a in modes)
    )
    return f, g


def random_nested_tuple(rng: random.Random, max_len: int = 4) -> Nested:
    entries = tuple(rng.choice(SMOOTH) for _ in range(rng.randrange(0, max_len + 1)))
    return random_tree(rng, entries)


# -- hypothesis strategies --------------------------------------------------


def seeds() -> st.SearchStrategy[random.Random]:
    return st.integers(0, 2**32 - 1).map(random.Random)


@st.composite
def tractable_flats(draw, **kwargs) -> FlatLayout:
    return random_tractable_flat(draw(seeds()), **kwargs)


@st.composite
def tractable_layouts(draw, **kwargs) -> Layout:
    return random_layout(draw(seeds()), **kwargs)


@st.composite
def standard_morphisms(draw, **kwargs) -> TupleMorphism:
    return random_standard_morphism(draw(seeds()), **kwargs)


@st.composite
def morphisms_with_units(draw, **kwargs) -> TupleMorphism:
    rng = draw(seeds())
    return with_unit_entries(rng, random_morphism(rng, **kwargs))


@st.composite
def composable_pairs(draw, **kwargs) -> Tuple[TupleMorphism, TupleMorphism]:
    return random_composable_pair(draw(seeds()), **kwargs)


@st.composite
def nested_tuples(draw, max_len: int = 4) -> Nested:
    return random_nested_tuple(draw(seeds()), max_len)
