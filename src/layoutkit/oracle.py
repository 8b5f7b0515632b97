"""Ground-truth checks by exhaustive evaluation.

Everything here works on full function tables rather than on the algebraic structure, so
it is independent of the engine: the engine's results are verified against these tables in
the test suite. Tables are built from a layout's ``shape`` and ``stride`` alone, mode by
mode in colex order, as one int of packed words; each entry reads its cap, an ``int``, and
each layout's size and largest value once.  :func:`functions_equal` compares largest
values, then tables in words of that value's bit length.  A :class:`FunctionTable`, which
shares the record base, is always a layout's table: :func:`_packed`'s words of the fewest
bytes, a power of two, in one ``array``, a tuple past 8 bytes, so a point read makes one
``int``, ``values`` is their ``tuple``, and tables compare by ``==`` in C.  A layout of n
points is a bijection onto [0, n) when its image, one int with a bit set per value, fills
[0, n); a composite is checked by one ``itemgetter`` gather from the second layout's
table, else point by point.
"""

from __future__ import annotations

import sys
from array import array
from operator import itemgetter, mul
from typing import List, Optional, Sequence, Tuple, Union

from .errors import LayoutError, OracleCapError
from .nestcat import Layout
from .shapes import INT64_MAX, _check_ints, _str
from .tuplecat import FlatLayout, _Record, concat_flat

#: refuse to tabulate anything larger than this many points by default
DEFAULT_CAP = 10**6
#: the ``array`` type code of each word width that has one, by the code's item size
_CODES = {array(c).itemsize: c for c in "BHILQ"}
#: the most points of the second layout per point of the first that ``check_compose``
#: tabulates for a gather: past it, calling the layouts point by point costs less
_GATHER_SPAN = 512

LayoutLike = Union[Layout, FlatLayout]


class FunctionTable(_Record):
    """The value table of ``layout`` on [0, size), refused past ``cap`` points: :func:`_packed`'s
    words, so an ``int`` is made only where a value is read.  Equal values have one largest
    value, so one word width: the record base compares the words; ``hash`` reads the values."""

    __slots__ = ("_data",)

    def __init__(self, layout: LayoutLike, cap: int = DEFAULT_CAP) -> None:
        flat = layout.flat()
        n = flat.size()
        _within(n, cap)
        _Record.__init__(self, _packed(flat, n, _largest(flat)))

    def __hash__(self) -> int:
        return hash((self.values,))

    @property
    def values(self) -> Tuple[int, ...]:
        """The values, a tuple: the packed words made ``int``s."""
        return tuple(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    def __getitem__(self, x: int) -> int:
        """The value at ``x``, an ``int`` (not ``bool``) in [0, size)."""
        if type(x) is not int or not 0 <= x < len(self._data):
            raise LayoutError(f"a table of size {len(self._data)} has no index {x!r}")
        return self._data[x]

    def __repr__(self) -> str:
        return f"FunctionTable(values={_str(self.values, repr)})"

    def is_bijection_onto_range(self) -> bool:
        """Whether the ``n`` values, each a non-negative ``int`` and ``n ≥ 1``, are distinct and
        below ``n``, in linear time; :func:`_onto` reads a layout's image off its modes."""
        v, n = self._data, len(self._data)
        return max(v) < n and len(set(v)) == n


def table_of(layout: LayoutLike, cap: int = DEFAULT_CAP) -> FunctionTable:
    """The table of ``layout``: ``FunctionTable(layout, cap)``."""
    return FunctionTable(layout, cap)


def _packed(flat: FlatLayout, n: int, top: int) -> Union[array, Tuple[int, ...]]:
    """The ``n`` values of ``flat`` in :func:`_table`'s words of the fewest bytes, a power of two,
    that hold its largest value ``top``: an ``array`` of the type code of that item size, in
    native byte order (swapped on a big-endian host), or a tuple of ints past 8 bytes."""
    w = 1
    while top.bit_length() > 8 * w:
        w *= 2
    raw = _table(flat, 8 * w).to_bytes(n * w, "little")
    if w not in _CODES:
        return tuple(int.from_bytes(raw[i : i + w], "little") for i in range(0, len(raw), w))
    words = array(_CODES[w], raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _table(flat: FlatLayout, bits: int) -> int:
    """The values of ``flat`` in colex order as one int, word ``j`` at bit ``bits·j``, where
    ``bits`` holds the largest value, so no word carries.  A mode ``s:d`` ors in the table so
    far shifted by ``h`` copies, ``h·d`` added to every word, ``h`` doubling, the last step cut
    by a mask."""
    modes = list(zip(flat.shape, flat.stride))
    table, ones, k = 0, 1, 1  # ones has a 1 in each of the k words so far
    for m, (s, d) in enumerate(modes):
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
    return table


def _onto(flat: FlatLayout, n: int) -> bool:
    """Whether ``flat``, of ``n`` points, is a bijection onto [0, n), refused early when its
    largest value is not below n: its image, one int with a bit set per value, fills [0, n).
    A mode ``s:d`` ors in the image shifted by ``c*d``, ``c`` doubling up to ``s``, so a
    repeated value (a zero stride's too) leaves a bit unset, and no table of words is built."""
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
    top = _largest(fa)
    if n != fb.size() or top != _largest(fb):
        return False
    bits = max(1, top.bit_length())  # one largest value, so words of one width
    return _table(fa, bits) == _table(fb, bits)


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
    n = fa.size()
    _within(n, cap)
    if fc.size() != n:
        return False
    top, m = _largest(fa), fb.size()
    if top < m <= min(cap, _GATHER_SPAN * n):
        top_b, top_c = _largest(fb), _largest(fc)
        if max(top_b, top_c) <= INT64_MAX:  # a's table only here, b's words read at a's values
            ys = itemgetter(*_packed(fa, n, top))(_packed(fb, m, top_b))
            return (ys if n > 1 else (ys,)) == tuple(_packed(fc, n, top_c))
    return all(fc(x) == fb(fa(x)) for x in range(n))


def _within(n: int, cap: int, what: str = "table") -> None:
    """Refuse a ``cap`` that is not an ``int`` (``bool`` included), then ``n`` points past it."""
    if type(cap) is not int:
        raise LayoutError(f"cap {cap!r} is not an integer")
    if n > cap:
        raise OracleCapError(f"{what} of size {n} exceeds cap {cap}")


def _largest(flat: FlatLayout) -> int:
    """The largest value of the layout function, in unbounded arithmetic."""
    return sum(map(mul, flat.shape, flat.stride)) - sum(flat.stride)


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
    elif n is not None:  # as the engine's complement checks it
        _check_ints((n,), "complement size", fa)
    fb = b.flat()
    total = fa.size() * fb.size()
    _within(total, cap)
    if n is not None and total != n:
        return False
    return _onto(concat_flat([fa, fb]), total)


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
            if _onto(concat_flat([fa, b]), n):
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
