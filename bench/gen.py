"""Seeded generators for benchmark inputs.

Everything is drawn from one ``random.Random``; the test suite's generators
are not used, so editing the tests cannot change what the benchmark runs.

Tractable layouts are built as stride chains (each stride a multiple of the
previous mode's shape * stride), then decorated with broadcast (stride-0)
and unit modes, shuffled, and nested to an exact depth.  Operand pairs that
should compose are built over a common refinement of the second operand's
coalesced shape, so the engine's greedy mutual refinement succeeds on them;
a seeded share of pairs is drawn independently instead, and those are mostly
refused.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from layoutkit import Layout, flatten, size

Mode = Tuple[int, int]

#: share of compose / divide / product / complement inputs drawn without the
#: constructions below, so the engine's refusal path is exercised
UNRELATED_SHARE = 0.15


@dataclass(frozen=True)
class Spec:
    """Input size class: ranges are inclusive."""

    nonunit: Tuple[int, int]  # modes with shape > 1
    entries: Tuple[int, int]  # flat entries, unit modes included
    depth: Tuple[int, int]
    max_size: int
    palette: Tuple[int, ...]
    broadcasts: int  # most stride-0 modes of shape > 1
    product_max: int  # size bound on each operand of a logical product


def prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def chain(rng: random.Random, spec: Spec, max_size: int, gaps: bool, k: int) -> List[Mode]:
    """Up to ``k`` modes (s, d) with s_i * d_i | d_{i+1}, product of shapes
    at most ``max_size``; with ``gaps`` the strides skip offsets."""
    modes: List[Mode] = []
    total = 1
    d = rng.choice(spec.palette) if gaps and rng.random() < 0.3 else 1
    for _ in range(k):
        s = rng.choice(spec.palette)
        if total * s > max_size:
            s = 2
            if total * s > max_size:
                break
        modes.append((s, d))
        total *= s
        gap = rng.choice(spec.palette) if gaps and rng.random() < 0.3 else 1
        # gaps stop growing the offset range past 4x the size, so every
        # complement stays small enough to tabulate
        d *= s * (gap if d * s * gap <= 4 * max_size else 1)
    return modes


def tree(rng: random.Random, leaves: list, depth: int):
    """A nested tuple of exactly ``depth`` over ``leaves`` in order (depth 0
    needs a single leaf)."""
    if depth == 0:
        return leaves[0]
    if depth == 1:
        return tuple(leaves)
    n = len(leaves)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    groups = [leaves[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    deep = rng.randrange(k)
    return tuple(
        tree(rng, g, depth - 1 if i == deep else rng.randint(0 if len(g) == 1 else 1, depth - 1))
        for i, g in enumerate(groups)
    )


def dress(
    rng: random.Random,
    spec: Spec,
    modes: List[Mode],
    entries: int,
    depth: int,
    broadcast: bool,
    max_size: Optional[int] = None,
) -> Layout:
    """Add broadcast and unit modes up to ``entries``, shuffle, and nest to
    ``depth``."""
    modes = list(modes)
    total = prod(s for s, _ in modes)
    limit = max_size or spec.max_size
    if broadcast:
        for _ in range(rng.randint(0, spec.broadcasts)):
            s = rng.choice(spec.palette)
            if len(modes) < entries and total * s <= limit:
                modes.append((s, 0))
                total *= s
    strides = [d for _, d in modes] + [0]
    while len(modes) < entries:
        modes.append((1, rng.choice(strides)))
    if not modes:
        modes.append((1, 0))
    rng.shuffle(modes)
    if len(modes) > 1:
        depth = max(depth, 1)
    idx = tree(rng, list(range(len(modes))), depth)
    return Layout(_fill(idx, [s for s, _ in modes]), _fill(idx, [d for _, d in modes]))


def _fill(idx, values):
    if isinstance(idx, int):
        return values[idx]
    return tuple(_fill(c, values) for c in idx)


class Gen:
    """Layouts and operand tuples of one size class.

    Entry counts, depths and non-unit counts cycle through their ranges
    instead of being drawn at random, so every seed sees the same
    distribution of the properties the engine's cost depends on and only the
    values differ.
    """

    def __init__(self, rng: random.Random, spec: Spec, unrelated_share: float = UNRELATED_SHARE):
        self.rng = rng
        self.spec = spec
        self.unrelated_share = unrelated_share
        self.n = 0
        self.drawn = 0
        self.drew_unrelated = False

    def _ladder(self, lo_hi: Tuple[int, int], step: int) -> int:
        lo, hi = lo_hi
        return lo + (self.n * step) % (hi - lo + 1)

    def _shape_class(self) -> Tuple[int, int, int]:
        self.n += 1
        k = self._ladder(self.spec.nonunit, 1)
        return k, self._ladder(self.spec.entries, 5), self._ladder(self.spec.depth, 1)

    def layout(self, gaps=True, broadcast=True, max_size=None, compact=False) -> Layout:
        k, entries, depth = self._shape_class()
        limit = max_size or self.spec.max_size
        modes = chain(self.rng, self.spec, limit, gaps and not compact, k)
        return dress(self.rng, self.spec, modes, max(entries, len(modes)), depth, broadcast, limit)

    def over(self, coarse: Layout, take: float, broadcast: bool, max_size=None) -> Layout:
        """A layout whose offsets index the coalesced domain of ``coarse``,
        column-major over a random refinement of it: consecutive runs of the
        refined entries are each kept as one mode with probability
        ``take``."""
        k, entries, depth = self._shape_class()
        limit = max_size or self.spec.max_size
        fine = [f for e in flatten(coarse.coalesce().shape) for f in self._split(e)]
        pre = [1]
        for f in fine:
            pre.append(pre[-1] * f)
        runs: List[Mode] = []
        i = 0
        while i < len(fine):
            j = i + (2 if i + 1 < len(fine) and self.rng.random() < 0.25 else 1)
            if self.rng.random() < take:
                runs.append((prod(fine[i:j]), pre[i]))
            i = j
        self.rng.shuffle(runs)
        modes: List[Mode] = []
        total = 1
        for s, d in runs:
            if len(modes) < k and total * s <= limit and s > 1:
                modes.append((s, d))
                total *= s
        if not modes and fine and fine[0] <= limit:
            modes.append((fine[0], 1))
        return dress(self.rng, self.spec, modes, max(entries, len(modes)), depth, broadcast, limit)

    def _split(self, e: int) -> List[int]:
        """``e`` as an ordered product of factors, primes grouped at random."""
        primes = []
        p = 2
        while e > 1:
            while e % p == 0:
                primes.append(p)
                e //= p
            p += 1
        self.rng.shuffle(primes)
        out: List[int] = []
        for q in primes:
            if out and self.rng.random() < 0.3:
                out[-1] *= q
            else:
                out.append(q)
        return out or [1]

    def unrelated(self) -> bool:
        """Whether the next operand tuple is drawn without construction: a
        fixed share of calls, evenly spread, so every seed refuses about
        as often."""
        self.drawn += 1
        out = int(self.drawn * self.unrelated_share) > int((self.drawn - 1) * self.unrelated_share)
        self.drew_unrelated |= out
        return out

    def operands(self, kind: str) -> Tuple[tuple, bool]:
        """Operands for the layout operation ``kind`` and whether they were
        constructed to be accepted; only a tuple with an independently drawn
        part may be refused."""
        self.drew_unrelated = False
        args = getattr(self, kind)()
        return args, not self.drew_unrelated

    # -- operand tuples, one per layout operation ---------------------------

    def compose(self) -> Tuple[Layout, Layout]:
        b = self.layout()
        a = self.layout() if self.unrelated() else self.over(b, 0.6, broadcast=True)
        return a, b

    def logical_divide(self) -> Tuple[Layout, Layout]:
        a = self.layout()
        t = self.layout() if self.unrelated() else self.over(a, 0.5, broadcast=False)
        return a, t

    def logical_product(self) -> Tuple[Layout, Layout]:
        m = self.spec.product_max
        if self.unrelated():
            return self.layout(max_size=m), self.layout(max_size=m)
        a = self.layout(broadcast=False, max_size=m, compact=True)
        b = self.layout(max_size=m, compact=True)
        return a, b

    def complement(self) -> Tuple[Layout, Optional[int]]:
        a = self.layout(broadcast=self.unrelated())
        flat = a.flat()
        srt = flat.squeeze().sort()
        if not flat.is_complementable() or self.rng.random() < 0.3:
            return a, None
        end = srt.shape[-1] * srt.stride[-1] if srt.rank else 1
        return a, end * self.rng.choice((1, 2, 3, 4) if end <= self.spec.max_size else (1,))

    def coalesce(self) -> Tuple[Layout]:
        return (self.layout(),)

    def coalesce_relative(self) -> Tuple[Layout, object]:
        a = self.layout()
        return a, self.coarsen(a.shape)

    def coarsen(self, x):
        """A tree that ``x`` refines: random subtrees replaced by their
        size."""
        if isinstance(x, int) or self.rng.random() < 0.35:
            return size(x)
        return tuple(self.coarsen(c) for c in x)
