"""Nested integer tuples, profiles, and colexicographic (un)linearization.

A nested tuple is represented directly as a Python value: an ``int`` at depth
0, or a tuple of nested tuples.  A bare integer ``n`` and the length-1 tuple
``(n,)`` are distinct values.  A tuple is the only node: anything else is a
leaf, so a profile is a tree with the sentinel :data:`STAR` at the leaves.
Five walkers keep their own stack of iterators, one per open tuple, so no tree
is too deep to walk: :func:`flatten`, :func:`_flat_pair` (which :func:`_same`
reads too), :func:`_pieces`, which reads a refinement, :func:`_substitute`
(which :func:`depth` reads off) and :func:`_text`, on which a refusal writes a
tree or a refused list leaf, and a layout its shape and strides on one skeleton.

All arithmetic stays in the signed 64-bit range: entries are range-checked
where they enter (:func:`_check_entries`), and products are checked where
they are taken, a sum or product of many once, on the result.  Leaving the range raises
:class:`~layoutkit.errors.ArithmeticOverflowError` instead of wrapping.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import reduce
from itertools import accumulate, repeat
from math import prod
from operator import mul
from typing import Optional, Tuple, Union

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


def checked_prod(entries: Sequence[int]) -> int:
    """The product of ``entries`` checked once, as a nonzero integer one bounds each
    partial; past the range, or at 0, it is taken again by :func:`checked_mul`."""
    r = prod(entries)
    if type(r) is not int or not r or not -INT64_MAX - 1 <= r <= INT64_MAX:
        r = reduce(checked_mul, entries, 1)
    return r


def _check_ints(entries: Sequence[object], noun: str, whole: object) -> None:
    """Refuse an entry whose type is not ``int``, ``bool`` included."""
    for e in entries:
        if type(e) is not int:
            raise LayoutError(f"{noun} {_str(e, repr)} in {_str(whole)} is not an integer")


def _check_sequence(value: object, name: str) -> None:
    """Refuse a ``value`` that is no sequence, such as a scalar, where a flat sequence is read."""
    if not isinstance(value, Sequence):
        raise LayoutError(f"{name} must be a sequence, not {type(value).__name__}")


def _check_entries(entries: Sequence[int], floor: int, noun: str, whole: object) -> None:
    """Refuse a non-``int`` entry or one below ``floor`` (1 or 0) with
    :class:`LayoutError`, and one beyond 2^63-1 with :class:`ArithmeticOverflowError`."""
    _check_ints(entries, noun, whole)
    if entries and min(entries) < floor:
        raise LayoutError(f"{'non-positive' if floor else 'negative'} {noun} in {_str(whole)}")
    if entries and max(entries) > INT64_MAX:
        raise ArithmeticOverflowError(
            f"{noun} {max(entries)} in {_str(whole)} exceeds the signed 64-bit range"
        )


def flatten(x: Nested) -> Tuple[int, ...]:
    """Flat tuple of entries, a flat tuple itself; a depth-0 integer flattens to a 1-tuple."""
    return _flat_pair(x, x)[0]


def profile(x: Nested) -> Profile:
    return _substitute(x, repeat(STAR))


def congruent(a: Nested, b: Nested) -> bool:
    """Whether both trees have the same profile."""
    return _flat_pair(a, b) is not None


def _flat_pair(a: Nested, b: Nested) -> Optional[Tuple[tuple, tuple]]:
    """``(flatten(a), flatten(b))`` in one paired walk, or None where they are not congruent."""
    if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b)):
        return None if isinstance(a, tuple) or isinstance(b, tuple) else ((a,), (b,))
    xs, ys, stack, it, copy = [], [], [], zip(a, b), not type(a) is type(b) is tuple
    while True:
        for x, y in it:
            if isinstance(x, tuple) or isinstance(y, tuple):
                if not (isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y)):
                    return None
                stack.append(it)
                it, copy = zip(x, y), True
                break
            xs.append(x)
            ys.append(y)
        else:
            if not stack:  # flat tuples are their own flattening
                return (tuple(xs), tuple(ys)) if copy else (a, b)
            it = stack.pop()


def _same(a: Nested, b: Nested) -> bool:
    """``a == b`` where the built-in recurses once per level: paired flattenings, equal."""
    pair = _flat_pair(a, b)
    return pair is not None and pair[0] == pair[1]


def length(x: Nested) -> int:
    """Number of entries (leaves)."""
    return len(flatten(x))


def rank(x: Nested) -> int:
    return len(x) if isinstance(x, tuple) else 1


def depth(x: Nested) -> int:
    """The deepest leaf or empty tuple, read off the build walk: ``depth(()) == 0``."""
    # not max(ds, default=-1): the keyword argument makes depth about twice as slow
    return _substitute(x, repeat(0), lambda ds: 1 + max(ds) if ds else 0)


def size(x: Nested) -> int:
    """Product of the leaves, each an ``int``, by :func:`checked_prod` (which the engine reads)."""
    leaves = flatten(x)
    _check_ints(leaves, "entry", x)
    return checked_prod(leaves)


def format_nested(x: Nested) -> str:
    """Canonical text of a nested tuple: ``4`` or ``(2,(3,4))``."""
    return _text(x, str, ",", ")")


def _str(x: object, show=str) -> str:
    """``show(x)`` for ``str`` or ``repr``, which write a tuple or list alike, with one C
    frame per level: such a tree is written on :func:`_text`'s stack instead."""
    return _text(x, repr, ", ", ",)") if isinstance(x, (tuple, list)) else show(x)


def _text(x: object, leaf, sep: str, single: str) -> str:
    """Each leaf as ``leaf`` writes it, a tuple's children joined by ``sep`` and a 1-tuple
    closed by ``single``; a list is a node too, as the built-ins write it: each item inside
    it as ``repr`` writes it, joined by ``", "``, and ``[...]`` inside itself."""
    out: list = []
    stack, lists = [(enumerate((x,)), "")], {}  # the open lists' ids, innermost last
    outside, inside = (leaf, sep, single), (repr, ", ", ",)")
    while stack:  # each push and pop comes back here, so whether a list is open is known
        show, comma, one = inside if lists else outside
        for i, c in stack[-1][0]:
            if i:
                out.append(comma)
            if isinstance(c, tuple):
                out.append("(")
                stack.append((enumerate(c), one if len(c) == 1 else ")"))
                break
            if isinstance(c, list) and id(c) not in lists:
                out.append("[")
                lists[id(c)] = None
                stack.append((enumerate(c), "]"))
                break
            out.append("[...]" if isinstance(c, list) else show(c))
        else:
            close = stack.pop()[1]
            out.append(close)
            if close == "]":
                lists.popitem()
    return "".join(out)


def substitute(parts: Sequence[Nested], prof: Profile) -> Nested:
    """Replace the leaves of ``prof``, in order, by the given nested tuples."""
    _check_sequence(parts, "parts")
    if len(parts) != length(prof):
        raise LayoutError(
            f"substitution needs {length(prof)} parts, got {len(parts)}"
        )
    return _substitute(prof, iter(parts))


def _substitute(tree: Nested, parts: Iterator[Nested], close=tuple):
    """:func:`substitute` unchecked, each tuple built by ``close`` from its children."""
    if not isinstance(tree, tuple):
        return next(parts)
    stack, it, out = [], iter(tree), []
    while True:
        for c in it:
            if isinstance(c, tuple):
                stack.append((it, out))
                it, out = iter(c), []
                break
            out.append(next(parts))
        else:
            if not stack:
                return close(out)
            done = close(out)
            it, out = stack.pop()
            out.append(done)


def refines(fine: Nested, coarse: Nested) -> bool:
    """Whether ``fine`` may be obtained from ``coarse`` by replacing each
    entry with a nested tuple of the same size: whether :func:`relative_modes`
    accepts it.  A leaf that is not an ``int`` or an overflowing product still raises."""
    try:
        relative_modes(fine, coarse)
    except NotRefinementError:
        return False
    return True


def relative_modes(fine: Nested, coarse: Nested) -> list:
    """For each entry of ``coarse``, the sub-tree of ``fine`` refining it: ``length(coarse)``
    of them, with ``substitute(result, profile(coarse)) == fine``.  Every leaf of both must
    be an ``int``; the engine reads :func:`_pieces` on trees it has checked."""
    for tree in (fine, coarse):
        _check_ints(flatten(tree), "entry", tree)
    return _pieces(fine, coarse)[0]


def _pieces(fine: Nested, coarse: Nested) -> Tuple[list, list]:
    """For each entry of ``coarse``, the sub-tree of ``fine`` over it and its flat entries,
    whose :func:`checked_prod` must be the entry, an ``int``, or :class:`NotRefinementError`
    refuses ``fine``: one paired walk, down while both are tuples of one length, that
    flattens each sub-tree once and checks no leaf."""
    subs, pieces, stack, it = [], [], [], zip((fine,), (coarse,))
    while True:
        for f, c in it:
            if isinstance(f, tuple) and isinstance(c, tuple) and len(f) == len(c):
                stack.append(it)
                it = zip(f, c)
                break
            p = flatten(f)
            if type(c) is not int or checked_prod(p) != c:
                raise NotRefinementError(f"{_str(fine)} does not refine {_str(coarse)}")
            subs.append(f)
            pieces.append(p)
        else:
            if not stack:
                return subs, pieces
            it = stack.pop()


def prefix_products(entries: Sequence[int]) -> Tuple[int, ...]:
    """Exclusive prefix products (1, e1, e1*e2, ...), each entry an ``int`` in 1..2^63-1."""
    _check_sequence(entries, "entries")
    _check_entries(entries, 1, "entry", tuple(entries))
    return _prefix_products(entries)


def _prefix_products(entries: Sequence[int]) -> Tuple[int, ...]:
    """:func:`prefix_products` of entries the engine has checked, bounded by the product of all."""
    checked_prod(entries)
    return tuple(accumulate(entries, mul, initial=1))


def _check_coord(shape: Sequence[int], coord: Sequence[int]) -> None:
    """Refuse a coordinate of the wrong form, rank, entry type or range for ``shape``."""
    _check_sequence(coord, "coordinate")
    if len(coord) != len(shape):
        raise LayoutError(f"coordinate rank {len(coord)} != {len(shape)}")
    _check_ints(coord, "coordinate", tuple(coord))
    for c, s in zip(coord, shape):
        if not 0 <= c < s:
            raise LayoutError(f"coordinate {tuple(coord)} out of range for {tuple(shape)}")


def _dot(coord: Sequence[int], weights: Sequence[int]) -> int:
    """The layout function: the sum of each coordinate times its weight, checked once,
    as no term is negative; past the range it is taken again by the checked steps."""
    out = sum(map(mul, coord, weights))
    return out if out <= INT64_MAX else reduce(checked_add, map(checked_mul, coord, weights), 0)


def colex(shape: Sequence[int], coord: Sequence[int]) -> int:
    """Linearize ``coord``, first axis fastest, by Horner's rule: no partial exceeds the answer."""
    _check_sequence(shape, "shape")
    _check_entries(shape, 1, "entry", tuple(shape))
    return _colex(shape, coord)


def _colex(shape: Sequence[int], coord: Sequence[int]) -> int:
    """:func:`colex` on a shape the engine has checked: only the coordinate is checked."""
    _check_coord(shape, coord)
    x = 0
    for c, s in zip(reversed(coord), reversed(shape)):
        x = checked_add(checked_mul(x, s), c)
    return x


def colex_inv(shape: Sequence[int], x: int) -> Tuple[int, ...]:
    """Inverse of :func:`colex`, dividing ``x`` down: no product of the whole shape."""
    _check_sequence(shape, "shape")
    _check_entries(shape, 1, "entry", tuple(shape))
    return _colex_inv(shape, x)


def _colex_inv(shape: Sequence[int], x: int) -> Tuple[int, ...]:
    """:func:`colex_inv` on a shape the engine has checked: only the index is checked."""
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
