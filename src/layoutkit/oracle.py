"""Ground-truth checks by exhaustive evaluation.

Everything here works on full function tables rather than on the algebraic
structure, so it is independent of the engine: the engine's results are
verified against these tables in the test suite. Tables are built from a
layout's ``shape`` and ``stride`` alone, one mode at a time in colexicographic
order, as packed words as wide as the largest value needs: one int up to 64 KiB,
then bytes, converted once.  They are compared in the form they end in and read
as tuples by ``struct.unpack``. A layout of n points is a bijection
onto [0, n) when its image, one int with a bit set per value, fills [0, n); a
composite is checked by a gather from the second layout's table, else point by
point; every cap must be an ``int``. :class:`FunctionTable` shares the record base.
"""

from __future__ import annotations

import struct
import sys
from typing import List, Optional, Sequence, Tuple, Union

from .errors import LayoutError, OracleCapError
from .nestcat import Layout
from .shapes import INT64_MAX, _check_ints
from .tuplecat import FlatLayout, _as_tuples, _Record, concat_flat

#: refuse to tabulate anything larger than this many points by default
DEFAULT_CAP = 10**6
#: the ``struct`` and ``memoryview`` format of each word width that has one
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
#: the most bytes a table is built to as one int: past it, each big-int step would
#: make fresh temporaries of megabytes, dearer than the chunked rule's conversions
_INT_BYTES = 1 << 16
#: the most points of the second layout per point of the first that ``check_compose``
#: tabulates for a gather: past it, calling the layouts point by point costs less
_GATHER_SPAN = 512

LayoutLike = Union[Layout, FlatLayout]


class FunctionTable(_Record):
    """The full value table of a function on [0, len(values)): a tuple, a list
    stored as one; its values are not scanned."""

    __slots__ = ("values",)

    def __init__(self, values: Tuple[int, ...]) -> None:
        _as_tuples(self, values)

    @property
    def size(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> int:
        """The value at ``x``, an ``int`` (not ``bool``) in [0, size)."""
        if type(x) is not int or not 0 <= x < len(self.values):
            raise LayoutError(f"a table of size {len(self.values)} has no index {x!r}")
        return self.values[x]

    def is_bijection_onto_range(self) -> bool:
        """Whether the ``n`` values are distinct ``int``s in [0, n), in linear time: they come from
        any caller and may be negative, where :func:`_onto` reads a layout's image off its modes."""
        v, n = self.values, len(self.values)
        if not {int}.issuperset(map(type, v)):
            return False
        return not n or (min(v) >= 0 and max(v) < n and len(set(v)) == n)


def table_of(layout: LayoutLike, cap: int = DEFAULT_CAP) -> FunctionTable:
    return FunctionTable(_words(*_packed(layout.flat(), cap)))


def _packed(flat: FlatLayout, cap: int) -> Tuple[bytes, int]:
    """:func:`_table` as ``(table, w)`` with the table in bytes, words in native byte order."""
    table, w = _table(flat, cap)
    return (_native(table, flat.size() * w, w) if type(table) is int else table), w


def _table(flat: FlatLayout, cap: int) -> Tuple[Union[int, bytes], int]:
    """The values of ``flat`` in colex order as ``(table, w)``: words of ``w``
    bytes, ``w`` the fewest bytes, a power of two, that hold the largest value,
    so no word carries.  Up to ``_INT_BYTES`` the table is one int, word ``j`` at
    bit ``8·w·j``: a mode ``s:d`` ors in the table so far shifted by ``h`` copies,
    ``h·d`` added to every word, ``h`` doubling, the last step cut by a mask.
    From the first mode that would pass ``_INT_BYTES`` it is bytes, converted
    once, and a mode appends shifted copies a chunk at a time, one big-int add
    each: the chunk doubles while under 256 bytes, then stays, the rest last.
    So the form of a table depends on its length alone."""
    _within(flat.size(), cap)
    top, w = _largest(flat), 1
    while top >> 8 * w:
        w *= 2
    bits, modes = 8 * w, list(zip(flat.shape, flat.stride))
    table, ones, k = 0, 1, 1  # ones has a 1 in each of the k words so far
    for m, (s, d) in enumerate(modes):
        if k * s * w > _INT_BYTES:
            break
        h = 1
        while h < s:
            t, o = table, ones
            if s < 2 * h:  # the first s - h copies again
                cut = (1 << (s - h) * k * bits) - 1
                t, o = table & cut, ones & cut
            table |= (t + h * d * o) << h * k * bits
            if 2 * h < s or m + 1 < len(modes):  # ones is read again
                ones |= o << h * k * bits
            h = min(2 * h, s)
        k *= s
    else:
        return table, w
    table, order = _native(table, k * w, w), sys.byteorder
    one = (1).to_bytes(w, order)
    for s, d in modes[m:]:
        if d == 0:
            table *= s
            continue
        k, h = len(table), 1
        while h < s:
            if h * k < 256 or s < 2 * h:  # the first c copies again, shifted by h*d
                c = min(h, s - h)
                block = int.from_bytes(table[: c * k], order)
                block += h * d * int.from_bytes(one * (c * k // w), order)
                table, h = table + block.to_bytes(c * k, order), h + c
            else:  # whole chunks of h copies, each one add of h*d to the last
                step = h * d * int.from_bytes(one * (h * k // w), order)
                block, copies = int.from_bytes(table, order), [table]
                for _ in range(s // h - 1):
                    block += step
                    copies.append(block.to_bytes(h * k, order))
                table, h = b"".join(copies), s // h * h
    return table, w


def _native(table: int, n: int, w: int) -> bytes:
    """The ``n`` bytes of a table built as one int, its ``w``-byte words in native
    byte order: a big-endian host reverses the bytes of each word."""
    out = table.to_bytes(n, "little")
    if sys.byteorder == "little":
        return out
    swapped = bytearray(n)
    for i in range(w):
        swapped[i::w] = out[w - 1 - i :: w]
    return bytes(swapped)


def _words(table: bytes, w: int) -> Tuple[int, ...]:
    """The words of a packed table as ints, by ``struct.unpack`` where it has width ``w``."""
    if w in _FORMATS:
        return struct.unpack(f"{len(table) // w}{_FORMATS[w]}", table)
    return tuple(int.from_bytes(table[i : i + w], sys.byteorder) for i in range(0, len(table), w))


def _onto(flat: FlatLayout, cap: int) -> bool:
    """Whether ``flat`` is a bijection onto [0, n), refused early when its largest value is not
    below n: its image, one int with a bit set per value, fills [0, n).  A mode ``s:d`` ors in
    the image shifted by ``c*d``, ``c`` doubling up to ``s``, so a repeated value (a zero
    stride's too) leaves a bit unset, and no table of words is built."""
    n = flat.size()
    _within(n, cap)
    if _largest(flat) >= n:
        return False
    image = 1
    for s, d in zip(flat.shape, flat.stride):
        have = 1
        while have < s:
            c = min(have, s - have)
            image |= image << c * d
            have += c
    return image == (1 << n) - 1


def functions_equal(a: LayoutLike, b: LayoutLike, cap: int = DEFAULT_CAP) -> bool:
    fa, fb = a.flat(), b.flat()
    n = fa.size()
    _within(n, cap)
    if n != fb.size():
        return False
    # equal functions have one largest value, so one width, one length and one form
    return _table(fa, cap) == _table(fb, cap)


def check_compose(
    a: LayoutLike,
    b: LayoutLike,
    composite: Optional[LayoutLike] = None,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Check that ``composite`` (engine result when omitted) computes
    x ↦ b(a(x)) on every x in [0, size(a)): the cap counts ``size(a)`` alone.

    Where every value of ``a`` is in ``b``'s domain, ``size(b)`` is within the
    cap and within ``_GATHER_SPAN`` points per point of ``a``, and no value
    passes 2^63-1, ``b``'s table is read at the values of ``a`` and compared
    with the composite's.  Otherwise the answer is, as written,
    ``all(composite(x) == b(a(x)) for x in range(size(a)))``: the
    first point whose ``a(x)`` is outside ``b``'s domain raises
    :class:`LayoutError`, and a value outside the signed 64-bit range raises
    :class:`ArithmeticOverflowError`, unless an earlier point already differs.
    """
    if composite is None:
        composite = Layout.of_flat(a.flat()).compose(Layout.of_flat(b.flat()))
    fa, fb, fc = a.flat(), b.flat(), composite.flat()
    xs = _words(*_packed(fa, cap))
    if fc.size() != len(xs):
        return False
    span = min(cap, _GATHER_SPAN * len(xs))
    if _largest(fa) < fb.size() <= span and max(_largest(fb), _largest(fc)) <= INT64_MAX:
        # b's words, at most 8 bytes, read at a's values: no Python int per point of b
        table, w = _packed(fb, cap)
        ys = memoryview(table).cast(_FORMATS[w])
        return tuple(map(ys.__getitem__, xs)) == _words(*_packed(fc, cap))
    return all(fc(x) == fb(fa(x)) for x in range(len(xs)))


def _within(n: int, cap: int, what: str = "table") -> None:
    """Refuse a ``cap`` that is not an ``int`` (``bool`` included), then ``n`` points past it."""
    if type(cap) is not int:
        raise LayoutError(f"cap {cap!r} is not an integer")
    if n > cap:
        raise OracleCapError(f"{what} of size {n} exceeds cap {cap}")


def _largest(flat: FlatLayout) -> int:
    """The largest value of the layout function, in unbounded arithmetic."""
    return sum((s - 1) * d for s, d in zip(flat.shape, flat.stride))


def check_complement(
    a: LayoutLike,
    b: Optional[LayoutLike] = None,
    n: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Check that ``b`` (engine result when omitted) completes ``a`` to a
    bijection onto [0, size(a)*size(b)), of total size ``n`` when given."""
    fa = a.flat()
    if b is None:
        b = fa.complement(n)
    fb = b.flat()
    total = fa.size() * fb.size()
    _within(total, cap)
    if n is not None and total != n:
        return False
    return _onto(concat_flat([fa, fb]), cap)


def exhaustive_complement_search(
    a: LayoutLike, n: int, cap: int = DEFAULT_CAP
) -> List[FlatLayout]:
    """All sorted coalesced flat layouts B with A ⋆ B a bijection onto
    [0, n), found by enumeration and table checks.

    Candidates are pruned only with *necessary* conditions — the shape
    product is forced by sizes, strides must satisfy cosize(A ⋆ B) = n
    exactly, and in a compact layout of size n every stride and every
    shape*stride product is a prefix product of the sorted modes, hence a
    divisor of n — so the survivors are decided purely by the bijectivity
    table.
    """
    fa = a.flat()
    _check_ints((n,), "complement size", fa)
    _within(n, cap, "search space")
    if n < 1 or n % fa.size() != 0:
        return []
    m = n // fa.size()
    budget = n - fa.cosize()
    if budget < 0:
        return []

    out: List[FlatLayout] = []
    for shape in _factorizations(m):
        for stride in _stride_choices(shape, budget, 1, n):
            if any(
                shape[i] * stride[i] == stride[i + 1] for i in range(len(shape) - 1)
            ):
                continue  # mergeable, so not in canonical (coalesced) form
            b = FlatLayout(shape, stride)
            if _onto(concat_flat([fa, b]), cap):
                out.append(b)
    return out


def _factorizations(m: int) -> List[Tuple[int, ...]]:
    """All ordered tuples of factors >= 2 with the given product (and () for
    m == 1)."""
    if m == 1:
        return [()]
    out: List[Tuple[int, ...]] = []
    for first in range(2, m + 1):
        if m % first == 0:
            for rest in _factorizations(m // first):
                out.append((first,) + rest)
    return out


def _stride_choices(
    shape: Sequence[int], budget: int, low: int, n: int
) -> List[Tuple[int, ...]]:
    """Non-decreasing positive strides with sum((s-1)*d) exactly ``budget``,
    where each d and s*d divides ``n``."""
    if not shape:
        return [()] if budget == 0 else []
    s = shape[0]
    out: List[Tuple[int, ...]] = []
    d = low
    while (s - 1) * d <= budget:
        if n % d == 0 and n % (s * d) == 0:
            for rest in _stride_choices(shape[1:], budget - (s - 1) * d, d, n):
                out.append((d,) + rest)
        d += 1
    return out
