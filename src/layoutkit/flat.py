"""Flat (depth-1) layouts and their operation suite.  The constructors
validate: entries are range-checked where they enter, and products are
checked where they are taken.  What the engine derives from valid values
skips it (:func:`_unchecked`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .errors import LayoutError, NotComplementableError
from .shapes import (
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

    def sort_permutation(self) -> Tuple[int, ...]:
        """Stable ordering of modes by (stride, shape) ascending."""
        return tuple(
            sorted(range(self.rank), key=lambda i: (self.stride[i], self.shape[i]))
        )

    def sort(self) -> "FlatLayout":
        return self.permute(self.sort_permutation())

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

    def is_compact(self) -> bool:
        """Whether the layout function is a bijection onto [0, cosize)."""
        srt = self.squeeze().sort()
        expect = 1
        for s, d in zip(srt.shape, srt.stride):
            if d != expect:
                return False
            expect = checked_mul(expect, s)
        return True

    def is_tractable(self) -> bool:
        srt = self.sort()
        for i in range(srt.rank - 1):
            d = srt.stride[i]
            if d == 0:
                continue
            if srt.stride[i + 1] % (srt.shape[i] * d) != 0:
                return False
        return True

    def _complement_chain(self) -> Optional["FlatLayout"]:
        """sort(squeeze(self)) if its strides satisfy the divisibility chain
        (all positive and s_i*d_i | d_{i+1}), else None."""
        srt = self.squeeze().sort()
        for i, d in enumerate(srt.stride):
            if d == 0:
                return None
            if i + 1 < srt.rank and srt.stride[i + 1] % (srt.shape[i] * d) != 0:
                return None
        return srt

    def is_complementable(self) -> bool:
        return self._complement_chain() is not None

    def is_n_complementable(self, n: int) -> bool:
        srt = self._complement_chain()
        if srt is None:
            return False
        last = srt.shape[-1] * srt.stride[-1] if srt.rank else 1
        return n >= 1 and n % last == 0

    def complement(self, n: Optional[int] = None) -> "FlatLayout":
        """The coalesced sorted layout B with self ⋆ B compact (of total size
        ``n`` when given)."""
        srt = self._complement_chain()
        if srt is None:
            raise NotComplementableError(f"{self} is not complementable")
        shape: list = []
        stride: list = []
        prev = 1
        for s, d in zip(srt.shape, srt.stride):
            shape.append(d // prev)
            stride.append(prev)
            prev = checked_mul(s, d)
        if n is not None:
            if n < 1 or n % prev != 0:
                raise NotComplementableError(
                    f"{self} is not {n}-complementable: {n} is not a positive multiple of {prev}"
                )
            _check_entries((n,), 1, "complement size", self)
            shape.append(n // prev)
            stride.append(prev)
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


def concat_flat(layouts: Iterable[FlatLayout]) -> FlatLayout:
    shape: Tuple[int, ...] = ()
    stride: Tuple[int, ...] = ()
    for l in layouts:
        shape += l.shape
        stride += l.stride
    return _unchecked(FlatLayout, shape, stride)


def column_major(shape: Sequence[int]) -> FlatLayout:
    return FlatLayout(tuple(shape), prefix_products(shape)[:-1])
