"""Flat (depth-1) layouts and their operation suite.  One sorted walk over
the modes (:func:`_standard_modes`) gives the standard representation, and
tractability, the complement and its predicates all read it.  Entries are
range-checked where they enter and products where they are taken; what the
engine derives from valid values skips the checks (:func:`_unchecked`)."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional, Sequence, Tuple

from .errors import LayoutError, NotComplementableError
from .shapes import (
    INT64_MAX,
    _check_entries,
    checked_add,
    checked_mul,
    colex_inv,
    format_nested,
    prefix_products,
)


def _unchecked(cls, *values):
    """The frozen dataclass ``cls`` with these field values, skipping its
    ``__post_init__``: only for values the engine derives from valid ones."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class FlatLayout:
    """A pair of equal-length flat tuples ``shape:stride``.

    Shape entries are positive; stride entries are non-negative; both fit in
    the signed 64-bit range.
    """

    shape: Tuple[int, ...]
    stride: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.shape) != len(self.stride):
            raise LayoutError(
                f"shape rank {len(self.shape)} != stride rank {len(self.stride)}"
            )
        _check_entries(self.shape, 1, "shape entry", self.shape)
        _check_entries(self.stride, 0, "stride entry", self.stride)

    # -- attributes --------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    def size(self) -> int:
        total = 1
        for s in self.shape:
            total = checked_mul(total, s)
        return total

    def cosize(self) -> int:
        total = 1
        for s, d in zip(self.shape, self.stride):
            total = checked_add(total, checked_mul(s - 1, d))
        return total

    # -- evaluation --------------------------------------------------------

    def eval_coord(self, coord: Sequence[int]) -> int:
        if len(coord) != self.rank:
            raise LayoutError(f"coordinate rank {len(coord)} != {self.rank}")
        out = 0
        for c, s, d in zip(coord, self.shape, self.stride):
            if not 0 <= c < s:
                raise LayoutError(f"coordinate {tuple(coord)} out of range for {self.shape}")
            out = checked_add(out, checked_mul(c, d))
        return out

    def __call__(self, x: int) -> int:
        return self.eval_coord(colex_inv(self.shape, x))

    # -- restrictions ------------------------------------------------------

    def restrict(self, idx: Sequence[int]) -> "FlatLayout":
        """Keep the listed modes (0-based), in the order given."""
        for i in idx:
            if not 0 <= i < self.rank:
                raise LayoutError(f"mode index {i} out of range for rank {self.rank}")
        shape = tuple(self.shape[i] for i in idx)
        return _unchecked(FlatLayout, shape, tuple(self.stride[i] for i in idx))

    def squeeze(self) -> "FlatLayout":
        return self.restrict([i for i, s in enumerate(self.shape) if s != 1])

    def filter_zeros(self) -> "FlatLayout":
        return self.restrict([i for i, d in enumerate(self.stride) if d != 0])

    def permute(self, sigma: Sequence[int]) -> "FlatLayout":
        """Mode ``i`` of the result is mode ``sigma[i]`` of ``self``."""
        if sorted(sigma) != list(range(self.rank)):
            raise LayoutError(f"{tuple(sigma)} is not a permutation of 0..{self.rank - 1}")
        return self.restrict(list(sigma))

    # -- sorting and coalescing --------------------------------------------

    def sort(self) -> "FlatLayout":
        """The modes ordered by (stride, shape)."""
        modes = sorted(zip(self.stride, self.shape))
        return _unchecked(
            FlatLayout, tuple(s for _, s in modes), tuple(d for d, _ in modes)
        )

    def is_coalesced(self) -> bool:
        if any(s == 1 for s in self.shape):
            return False
        for i in range(self.rank - 1):
            if self.shape[i] * self.stride[i] == self.stride[i + 1]:
                return False
        return True

    def coalesce(self) -> "FlatLayout":
        """The unique minimal-rank flat layout with the same layout function:
        drop unit modes, then merge adjacent modes with s_i*d_i == d_{i+1}."""
        return _unchecked(FlatLayout, *_coalesce_modes(self.shape, self.stride))

    # -- predicates --------------------------------------------------------

    def is_tractable(self) -> bool:
        """Whether the layout has a standard representation.  Unit modes count
        with their strides, so ``(4,1):(1,3)`` is not tractable though it
        coalesces to ``4:1``: an open decision, ROADMAP.md item 5."""
        return _standard_modes(self.shape, self.stride) is not None

    def _injective_walk(self) -> Optional[Tuple[tuple, tuple]]:
        """:func:`_standard_modes` of the non-unit modes, or None unless that
        representation exists and is injective: the complementable case."""
        squeezed = self.squeeze()
        walk = _standard_modes(squeezed.shape, squeezed.stride)
        return None if walk is None or 0 in walk[1] else walk

    def is_compact(self) -> bool:
        """Whether the layout function is a bijection onto [0, cosize): the
        layout is complementable and its representation misses no entry."""
        walk = self._injective_walk()
        return walk is not None and len(walk[0]) == len(walk[1])

    def is_complementable(self) -> bool:
        return self._injective_walk() is not None

    def is_n_complementable(self, n: int) -> bool:
        walk = self._injective_walk()
        return walk is not None and 1 <= n <= INT64_MAX and n % prod(walk[0]) == 0

    def complement(self, n: Optional[int] = None) -> "FlatLayout":
        """The coalesced sorted layout B with self ⋆ B compact (of total size
        ``n`` when given): the codomain entries that the standard
        representation of the non-unit modes misses, each at the product of
        the entries before it, then ``n`` over the product of them all."""
        walk = self._injective_walk()
        if walk is None:
            raise NotComplementableError(f"{self} is not complementable")
        entries, amap = walk
        pre = prefix_products(entries[:-1])  # the last entry is always hit: no gap
        missed = [j for j in range(len(entries)) if j + 1 not in amap]
        shape = [entries[j] for j in missed]
        stride = [pre[j] for j in missed]
        if n is not None:
            total = checked_mul(entries[-1], pre[-1]) if entries else 1
            if n < 1 or n % total != 0:
                raise NotComplementableError(
                    f"{self} is not {n}-complementable: {n} is not a positive multiple of {total}"
                )
            _check_entries((n,), 1, "complement size", self)
            shape.append(n // total)
            stride.append(total)
        return _unchecked(FlatLayout, *_coalesce_modes(shape, stride))

    # -- misc --------------------------------------------------------------

    def __str__(self) -> str:
        return f"{format_nested(self.shape)}:{format_nested(self.stride)}"


def _coalesce_modes(shape: Sequence[int], stride: Sequence[int]) -> Tuple[tuple, tuple]:
    """Shape and stride of the coalesce of the flat layout ``shape:stride``."""
    modes: list = []
    for s, d in zip(shape, stride):
        if s == 1:
            continue
        if modes and modes[-1][0] * modes[-1][1] == d:
            modes[-1] = (checked_mul(modes[-1][0], s), modes[-1][1])
        else:
            modes.append((s, d))
    return tuple(s for s, _ in modes), tuple(d for _, d in modes)


def _standard_modes(
    shape: Sequence[int], stride: Sequence[int]
) -> Optional[Tuple[tuple, tuple]]:
    """Codomain entries and map of the standard representation of the flat
    layout ``shape:stride``, or None when it is not tractable.  One pass in
    (stride, shape, index) order: each nonzero stride must be a multiple of
    s*d of the mode before, unit modes included; each non-unit mode adds its
    stride's cofactor (unless 1) and its shape as entries; the rest map to
    the basepoint.  Its products are not returned, so they are not checked."""
    entries: list = []
    amap = [0] * len(shape)
    chain = prev = 1
    for d, s, i in sorted(zip(stride, shape, range(len(shape)))):
        if d == 0:
            continue
        if d % chain != 0:
            return None
        chain = s * d
        if s != 1:
            if d != prev:
                entries.append(d // prev)
            entries.append(s)
            amap[i] = len(entries)
            prev = chain
    return tuple(entries), tuple(amap)


def concat_flat(layouts: Iterable[FlatLayout]) -> FlatLayout:
    shape: Tuple[int, ...] = ()
    stride: Tuple[int, ...] = ()
    for l in layouts:
        shape += l.shape
        stride += l.stride
    return _unchecked(FlatLayout, shape, stride)


def column_major(shape: Sequence[int]) -> FlatLayout:
    return FlatLayout(tuple(shape), prefix_products(shape)[:-1])
