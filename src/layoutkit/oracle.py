"""Ground-truth checks by exhaustive evaluation.

Everything here works on full function tables rather than on the algebraic
structure, so it is independent of the engine: the engine's results are
verified against these tables in the test suite. Tables are built from a
layout's ``shape`` and ``stride`` alone, one mode at a time in colexicographic
order, as packed words as wide as the largest value needs: each shifted copy
of the block so far is one big-int add, and tables are compared as bytes. A
table of n points is a bijection onto [0, n) when its largest value is below n
and its n words are distinct.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .errors import LayoutError, OracleCapError
from .nestcat import Layout
from .shapes import INT64_MAX, _check_ints
from .tuplecat import FlatLayout, concat_flat

#: refuse to tabulate anything larger than this many points by default
DEFAULT_CAP = 10**6
#: the ``memoryview`` format of each word width that has one
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}

LayoutLike = Union[Layout, FlatLayout]


@dataclass(frozen=True)
class FunctionTable:
    """The full value table of a function on [0, len(values))."""

    values: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.values)

    def __getitem__(self, x: int) -> int:
        """The value at ``x``, an ``int`` (not ``bool``) in [0, size)."""
        if type(x) is not int or not 0 <= x < len(self.values):
            raise LayoutError(f"a table of size {len(self.values)} has no index {x!r}")
        return self.values[x]

    def is_bijection_onto_range(self) -> bool:
        """Whether the ``n`` values are distinct and in [0, n), in linear time: they come from
        any caller and may be negative, so all are read, where :func:`_onto` reads a layout."""
        v, n = self.values, len(self.values)
        return not n or (min(v) >= 0 and max(v) < n and len(set(v)) == n)


def table_of(layout: LayoutLike, cap: int = DEFAULT_CAP) -> FunctionTable:
    return FunctionTable(tuple(_words(*_packed(layout.flat(), cap))))


def _packed(flat: FlatLayout, cap: int) -> Tuple[bytes, int]:
    """The values of ``flat`` in colex order as ``(table, w)``: words of ``w``
    bytes in native byte order, ``w`` the fewest bytes, a power of two, that
    hold the largest value, so no word carries.  A mode ``s:d`` appends its
    ``s - 1`` shifted copies of the table so far, each one big-int add of ``d``
    to every word; on a table under 256 bytes an even ``s:d`` is ``2:d`` then
    ``s/2:2d``, so a long mode costs a few adds, not one per point."""
    n = flat.size()
    if n > cap:
        raise OracleCapError(f"table of size {n} exceeds cap {cap}")
    top, w = _largest(flat), 1
    while top >> 8 * w:
        w *= 2
    table, one = bytes(w), (1).to_bytes(w, sys.byteorder)
    for s, d in zip(flat.shape, flat.stride):
        if d == 0:
            table *= s
            continue
        while s > 1:
            k = len(table)
            c = 2 if s % 2 == 0 and k < 256 else s
            step = d * int.from_bytes(one * (k // w), sys.byteorder)
            block, copies = int.from_bytes(table, sys.byteorder), [table]
            for _ in range(c - 1):
                block += step
                copies.append(block.to_bytes(k, sys.byteorder))
            table, s, d = b"".join(copies), s // c, d * c
    return table, w


def _words(table: bytes, w: int) -> List[int]:
    """The words of a packed table as ints, by ``memoryview.cast`` where it has width ``w``."""
    if w in _FORMATS:
        return memoryview(table).cast(_FORMATS[w]).tolist()
    return [int.from_bytes(table[i : i + w], sys.byteorder) for i in range(0, len(table), w)]


def _onto(flat: FlatLayout, cap: int) -> bool:
    """Whether ``flat`` is a bijection onto [0, n): largest value below n, n distinct words.
    A layout's values are non-negative and its largest is known before a table is built, so
    it refuses early and counts distinct words alone; a :class:`FunctionTable` read here
    would add two scans, for the least and the largest, to ``check_complement``'s timed path."""
    n = flat.size()
    return _largest(flat) < n and len(set(_words(*_packed(flat, cap)))) == n


def functions_equal(a: LayoutLike, b: LayoutLike, cap: int = DEFAULT_CAP) -> bool:
    fa, fb = a.flat(), b.flat()
    if fa.size() != fb.size():
        return False
    # equal functions have one largest value, so one width: compared as bytes
    return _packed(fa, cap) == _packed(fb, cap)


def check_compose(
    a: LayoutLike,
    b: LayoutLike,
    composite: Optional[LayoutLike] = None,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Check that ``composite`` (engine result when omitted) computes
    x ↦ b(a(x)) on every x in [0, size(a)), by comparing its table with
    ``b`` evaluated on the whole table of ``a``.

    The result and the errors are those of evaluating ``composite(x)`` and
    ``b(a(x))`` point by point in order: the first point whose ``a(x)`` is
    outside ``b``'s domain raises :class:`LayoutError`, and a value outside
    the signed 64-bit range raises :class:`ArithmeticOverflowError`, unless
    an earlier point already differs. Only the table of ``a`` and of the
    composite are held, so the cap counts ``size(a)`` alone.
    """
    if composite is None:
        composite = Layout.of_flat(a.flat()).compose(Layout.of_flat(b.flat()))
    fa, fb, fc = a.flat(), b.flat(), composite.flat()
    xs = _words(*_packed(fa, cap))
    if fc.size() != len(xs):
        return False
    nb = fb.size()
    ys = _evaluate(fb, xs)
    zs = _words(*_packed(fc, cap))
    if _largest(fa) < nb and max(_largest(fb), _largest(fc)) <= INT64_MAX:
        return ys == zs
    # some point may leave b's domain or the 64-bit range: the first point
    # that does, or that differs, decides, by pointwise evaluation
    for x, (v, y, z) in enumerate(zip(xs, ys, zs)):
        if v >= nb or max(y, z) > INT64_MAX or y != z:
            return fc(x) == fb(fa(x))
    return True


def _evaluate(flat: FlatLayout, xs: Sequence[int]) -> List[int]:
    """``flat`` at every point of ``xs``, one comprehension per mode; points
    outside its domain get meaningless values."""
    out = [0] * len(xs)
    step = 1
    for s, d in zip(flat.shape, flat.stride):
        if s > 1 and d:
            out = [o + x // step % s * d for o, x in zip(out, xs)]
        step *= s
    return out


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
    if n is not None and total != n:
        return False
    if total > cap:
        raise OracleCapError(f"table of size {total} exceeds cap {cap}")
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
    if n > cap:
        raise OracleCapError(f"search space of size {n} exceeds cap {cap}")
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
