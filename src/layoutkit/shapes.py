"""Nested integer tuples, profiles, and colexicographic (un)linearization.

A nested tuple is represented directly as a Python value: an ``int`` at depth
0, or a tuple of nested tuples.  A bare integer ``n`` and the length-1 tuple
``(n,)`` are distinct values.  A tuple is the only node: anything else is a
leaf, so a profile is a tree with the sentinel :data:`STAR` at the leaves.

All arithmetic stays in the signed 64-bit range: entries are range-checked
where they enter (:func:`_check_entries`), and products are checked where
they are taken.  Leaving the range raises
:class:`~layoutkit.errors.ArithmeticOverflowError` instead of wrapping.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Sequence, Tuple, Union

from .errors import ArithmeticOverflowError, LayoutError, NotRefinementError

Nested = Union[int, Tuple["Nested", ...]]
Profile = Union[str, Tuple["Profile", ...]]

#: profile leaf marker
STAR = "*"

INT64_MAX = 2**63 - 1


def checked_mul(a: int, b: int) -> int:
    r = a * b
    if r > INT64_MAX or r < -INT64_MAX - 1:
        raise ArithmeticOverflowError(f"64-bit overflow in {a} * {b}")
    return r


def checked_add(a: int, b: int) -> int:
    r = a + b
    if r > INT64_MAX or r < -INT64_MAX - 1:
        raise ArithmeticOverflowError(f"64-bit overflow in {a} + {b}")
    return r


def _check_ints(entries: Sequence[object], noun: str, whole: object) -> None:
    """Refuse an entry whose type is not ``int``, ``bool`` included."""
    for e in entries:
        if type(e) is not int:
            raise LayoutError(f"{noun} {e!r} in {whole} is not an integer")


def _check_entries(entries: Sequence[int], floor: int, noun: str, whole: object) -> None:
    """Refuse a non-``int`` entry or one below ``floor`` (1 or 0) with
    :class:`LayoutError`, and one beyond 2^63-1 with :class:`ArithmeticOverflowError`."""
    _check_ints(entries, noun, whole)
    if entries and min(entries) < floor:
        raise LayoutError(f"{'non-positive' if floor else 'negative'} {noun} in {whole}")
    if entries and max(entries) > INT64_MAX:
        raise ArithmeticOverflowError(
            f"{noun} {max(entries)} in {whole} exceeds the signed 64-bit range"
        )


def _leaves(x: Nested) -> Iterator[int]:
    if isinstance(x, tuple):
        for c in x:
            yield from _leaves(c)
    else:
        yield x


def flatten(x: Nested) -> Tuple[int, ...]:
    """Flat tuple of entries; a depth-0 integer flattens to a 1-tuple."""
    return tuple(_leaves(x))


def profile(x: Nested) -> Profile:
    return _substitute(x, repeat(STAR))


def congruent(a: Nested, b: Nested) -> bool:
    return profile(a) == profile(b)


def length(x: Nested) -> int:
    """Number of entries (leaves)."""
    return len(flatten(x))


def rank(x: Nested) -> int:
    return len(x) if isinstance(x, tuple) else 1


def depth(x: Nested) -> int:
    if not isinstance(x, tuple):
        return 0
    # the deepest child starts at -1, so depth(()) == 0
    d = -1
    for c in x:
        d = max(d, depth(c))
    return 1 + d


def size(x: Nested) -> int:
    """Product of the leaves; it checks no leaf, as the engine calls it on checked trees."""
    total = 1
    for e in _leaves(x):
        total = checked_mul(total, e)
    return total


def format_nested(x: Nested) -> str:
    """Canonical text of a nested tuple: ``4`` or ``(2,(3,4))``."""
    if not isinstance(x, tuple):
        return str(x)
    parts = []
    for c in x:
        parts.append(format_nested(c))
    return "(" + ",".join(parts) + ")"


def substitute(parts: Sequence[Nested], prof: Profile) -> Nested:
    """Replace the leaves of ``prof``, in order, by the given nested tuples."""
    if len(parts) != length(prof):
        raise LayoutError(
            f"substitution needs {length(prof)} parts, got {len(parts)}"
        )
    return _substitute(prof, iter(parts))


def _substitute(tree: Nested, parts: Iterator[Nested]) -> Nested:
    """:func:`substitute` unchecked, for the trees the engine re-nests."""
    if not isinstance(tree, tuple):
        return next(parts)
    out = []
    for c in tree:
        out.append(_substitute(c, parts))
    return tuple(out)


def refines(fine: Nested, coarse: Nested) -> bool:
    """Whether ``fine`` may be obtained from ``coarse`` by replacing each
    entry with a nested tuple of the same size.  It checks no leaf, as the
    engine calls it on checked trees."""
    if not isinstance(coarse, tuple):
        return size(fine) == coarse
    if not isinstance(fine, tuple) or len(fine) != len(coarse):
        return False
    for f, c in zip(fine, coarse):
        if not refines(f, c):
            return False
    return True


def relative_modes(fine: Nested, coarse: Nested) -> list:
    """For each entry of ``coarse``, the sub-tree of ``fine`` refining it.

    The result has ``length(coarse)`` elements and satisfies
    ``substitute(result, profile(coarse)) == fine``.  It checks no leaf, as
    the engine calls it on checked trees.
    """
    if not refines(fine, coarse):
        raise NotRefinementError(f"{fine} does not refine {coarse}")
    return _relative_modes(fine, coarse)


def _relative_modes(fine: Nested, coarse: Nested) -> list:
    if not isinstance(coarse, tuple):
        return [fine]
    out: list = []
    for f, c in zip(fine, coarse):
        out += _relative_modes(f, c)
    return out


def prefix_products(entries: Sequence[int]) -> Tuple[int, ...]:
    """Exclusive prefix products (1, e1, e1*e2, ...); it checks no entry, as
    the engine calls it on checked ones."""
    out = [1]
    for e in entries:
        out.append(checked_mul(out[-1], e))
    return tuple(out)


def _check_coord(shape: Sequence[int], coord: Sequence[int]) -> None:
    """Refuse a coordinate of the wrong rank, entry type or range for ``shape``."""
    if len(coord) != len(shape):
        raise LayoutError(f"coordinate rank {len(coord)} != {len(shape)}")
    _check_ints(coord, "coordinate", tuple(coord))
    for c, s in zip(coord, shape):
        if not 0 <= c < s:
            raise LayoutError(f"coordinate {tuple(coord)} out of range for {tuple(shape)}")


def _dot(coord: Sequence[int], weights: Sequence[int]) -> int:
    """The layout function: the checked sum of each coordinate times its weight."""
    out = 0
    for c, w in zip(coord, weights):
        out = checked_add(out, checked_mul(c, w))
    return out


def colex(shape: Sequence[int], coord: Sequence[int]) -> int:
    """Linearize ``coord``, first axis fastest, by Horner's rule: no partial exceeds the answer."""
    _check_coord(shape, coord)
    x = 0
    for c, s in zip(reversed(coord), reversed(shape)):
        x = checked_add(checked_mul(x, s), c)
    return x


def colex_inv(shape: Sequence[int], x: int) -> Tuple[int, ...]:
    """Inverse of :func:`colex`, dividing ``x`` down: no product of the whole shape."""
    _check_ints((x,), "index", tuple(shape))
    coord = []
    rest = x
    for s in shape:
        coord.append(rest % s)
        rest //= s
    if x < 0 or rest:
        raise LayoutError(f"index {x} out of range for shape {tuple(shape)}")
    _check_entries((x,), 0, "index", tuple(shape))  # in range: only the 64-bit check is left
    return tuple(coord)
