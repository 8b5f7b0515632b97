"""Flat layouts and tuple morphisms: the two sides of the Tuple category.

A tuple morphism ``f : (s_1..s_m) -> (t_1..t_n)`` carries a map ``alpha``
with ``alpha[i] == 0`` meaning the basepoint (the entry is dropped) and
``alpha[i] == j > 0`` meaning mode ``i`` lands on codomain position ``j``
(1-based), which forces ``s_i == t_j``.  No positive value may occur twice.

Each morphism encodes the :class:`FlatLayout` whose stride at mode ``i`` is
the product of the codomain entries before position ``alpha[i]`` (0 for the
basepoint); conversely every tractable flat layout has a canonical standard
representation, which tractability, the complement and its predicates read.
Entries are range-checked where they enter and products where they are
taken; what the engine derives skips the checks, by :func:`_unchecked`.
Each value class, the oracle's table too, is a :class:`_Record`.
"""

from __future__ import annotations

from contextlib import suppress
from math import prod
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import LayoutError, NotComplementableError, NotTractableError
from .shapes import (
    Nested,
    _check_coord,
    _check_entries,
    _check_ints,
    _check_sequence,
    _colex,
    _colex_inv,
    _dot,
    _prefix_products,
    _str,
    _text,
    checked_mul,
    checked_prod,
    format_nested,
)


def _unchecked(cls, *values):
    """The record ``cls`` with these field values, in order, skipping its ``__init__``'s
    checks: only for values the engine derives from valid ones, and for unpickling."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class _Record:
    """A value of its ``__slots__``, set once: equal to and hashed as their tuple in one class (a
    table hashes its values), pickled through :func:`_unchecked`, each tree written on a stack."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:  # the field tuple by one C call
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        same = other.__class__ is self.__class__
        return self._values(self) == other._values(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _unchecked, (type(self), *self._values(self))

    def __repr__(self) -> str:
        fields = (f"{name}={_str(getattr(self, name), repr)}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


def _as_tuples(obj, *values) -> None:
    """Set each field of ``obj`` to its value as a tuple, a list too; refuse any other value."""
    for name, value in zip(obj.__slots__, values):
        if not isinstance(value, (tuple, list)):
            raise LayoutError(f"{name} must be a tuple or list, not {type(value).__name__}")
        object.__setattr__(obj, name, tuple(value))


def _returns(op, *args):
    """The result of ``op(*args)``, or None where the operation is undefined."""
    with suppress(LayoutError):
        return op(*args)


class _LayoutFunction:
    """Flat and nested layouts: each question about the function is answered
    once, on the flat form (a flat layout is its own), each predicate by its operation."""

    __slots__ = ()

    def size(self) -> int:
        return checked_prod(self.flat().shape)

    def cosize(self) -> int:
        """One more than the value at the last coordinate: the sum with a leading term 1*1."""
        flat = self.flat()
        return _dot([1] + [s - 1 for s in flat.shape], (1,) + flat.stride)

    def eval_coord(self, coord: Sequence[int]) -> int:
        flat = self.flat()
        _check_coord(flat.shape, coord)
        return _dot(coord, flat.stride)

    def __call__(self, x: int) -> int:
        flat = self.flat()
        return _dot(_colex_inv(flat.shape, x), flat.stride)

    def is_tractable(self) -> bool:
        """Whether the layout has a standard representation, i.e. is the layout
        of a tuple morphism.  Unit modes count: a morphism gives every mode it
        carries the product of the codomain entries before it, so the strides
        of ``(4,1):(1,3)`` would have to form a chain, and they do not."""
        flat = self.flat()
        return _standard(flat.shape, flat.stride) is not None

    def is_coalesced(self) -> bool:
        return _returns(self.coalesce) == self

    def is_compact(self) -> bool:
        """Whether the layout is a bijection onto [0, cosize): its complement has size 1."""
        c = _returns(self.complement)
        return c is not None and c.size() == 1

    def is_complementable(self) -> bool:
        return _returns(self.complement) is not None

    def is_n_complementable(self, n: int) -> bool:
        return _returns(self.complement, n) is not None

    def __str__(self) -> str:  # both trees written on one skeleton of the shape tree
        tree, flat = _text(self.shape, lambda _: "{}", ",", ")"), self.flat()
        return f"{tree.format(*flat.shape)}:{tree.format(*flat.stride)}"


class FlatLayout(_LayoutFunction, _Record):
    """A pair of equal-length flat tuples ``shape:stride`` (lists are stored as tuples).

    Shape entries are positive; stride entries are non-negative; both fit in
    the signed 64-bit range.
    """

    __slots__ = ("shape", "stride")

    def __init__(self, shape: Tuple[int, ...], stride: Tuple[int, ...]) -> None:
        _as_tuples(self, shape, stride)
        if len(shape) != len(stride):
            raise LayoutError(f"shape rank {len(shape)} != stride rank {len(stride)}")
        _check_entries(self.shape, 1, "shape entry", self.shape)
        _check_entries(self.stride, 0, "stride entry", self.stride)

    # -- attributes --------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.shape)

    def flat(self) -> "FlatLayout":
        return self

    # -- restrictions ------------------------------------------------------

    def restrict(self, idx: Sequence[int]) -> "FlatLayout":
        """Keep the listed modes (0-based), in the order given."""
        _check_ints(idx, "mode index", tuple(idx))
        for i in idx:
            if not 0 <= i < self.rank:
                raise LayoutError(f"mode index {i} out of range for rank {self.rank}")
        return self._take(idx)

    def _take(self, idx: Sequence[int]) -> "FlatLayout":
        """:meth:`restrict` to mode indices already known to be valid."""
        shape = tuple(self.shape[i] for i in idx)
        return _unchecked(FlatLayout, shape, tuple(self.stride[i] for i in idx))

    def squeeze(self) -> "FlatLayout":
        return self._take([i for i, s in enumerate(self.shape) if s != 1])

    def filter_zeros(self) -> "FlatLayout":
        return self._take([i for i, d in enumerate(self.stride) if d != 0])

    def permute(self, sigma: Sequence[int]) -> "FlatLayout":
        """Mode ``i`` of the result is mode ``sigma[i]`` of ``self``."""
        _check_ints(sigma, "mode index", tuple(sigma))
        if sorted(sigma) != list(range(self.rank)):
            raise LayoutError(f"{tuple(sigma)} is not a permutation of 0..{self.rank - 1}")
        return self._take(sigma)

    # -- sorting and coalescing --------------------------------------------

    def sort(self) -> "FlatLayout":
        """The modes ordered by (stride, shape)."""
        order = sorted(range(self.rank), key=lambda i: (self.stride[i], self.shape[i]))
        return self._take(order)

    def coalesce(self) -> "FlatLayout":
        """The unique minimal-rank flat layout with the same layout function:
        drop unit modes, then merge adjacent modes with s_i*d_i == d_{i+1}."""
        return _unchecked(FlatLayout, *_coalesce_modes(self.shape, self.stride))

    # -- complement --------------------------------------------------------

    def complement(self, n: Optional[int] = None) -> "FlatLayout":
        """The coalesced sorted layout B with self ⋆ B compact (of size ``n`` when given),
        as :func:`_complement` reads it off the standard walk."""
        return _unchecked(FlatLayout, *_complement(self, n))


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


def _complement(flat: FlatLayout, n: Optional[int]) -> Tuple[tuple, tuple]:
    """Shape and stride of the complement of ``flat``, read off the standard walk of its
    non-unit modes: each codomain entry the walk misses, at the product of the entries
    before it, ``n`` over their product appended first."""
    kept = [i for i, s in enumerate(flat.shape) if s != 1]
    f = _standard([flat.shape[i] for i in kept], [flat.stride[i] for i in kept])
    if f is None or 0 in f[1]:  # not tractable, or not injective
        raise NotComplementableError(f"{flat} is not complementable")
    cod, amap = f
    if n is not None:
        _check_ints((n,), "complement size", flat)
        # the product before the last entry is the last stride, in range
        total = checked_mul(cod[-1], prod(cod[:-1])) if cod else 1
        if n < 1 or n % total != 0:
            raise NotComplementableError(
                f"{flat} is not {n}-complementable: {n} is not a positive multiple of {total}"
            )
        _check_entries((n,), 1, "complement size", flat)
        cod.append(n // total)
    pre, hit = _prefix_products(cod[:-1]), set(amap)  # each entry's stride: no product of them all
    shape = [t for j, t in enumerate(cod, 1) if j not in hit]
    stride = [p for j, p in enumerate(pre, 1) if j not in hit]
    return _coalesce_modes(shape, stride)


def _standard(shape: Sequence[int], stride: Sequence[int]) -> Optional[Tuple[list, list]]:
    """The codomain and map of the standard representation of ``shape:stride``, or None where
    it is not tractable.  One pass in (stride, shape, index) order: each nonzero stride must
    be a multiple of s*d of the mode before, unit modes included; each non-unit mode adds its
    stride's cofactor (unless 1) and its shape as codomain entries; the rest map to the
    basepoint.  Its products are not returned, so they are not checked."""
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
    return entries, amap


def _tractable(shape: Tuple[int, ...], stride: Tuple[int, ...]) -> Tuple[list, list]:
    """:func:`_standard` of ``shape:stride``, where it is None refused as not tractable."""
    f = _standard(shape, stride)
    if f is None:
        raise NotTractableError(f"{_unchecked(FlatLayout, shape, stride)} is not tractable")
    return f


def concat_flat(layouts: Iterable[FlatLayout]) -> FlatLayout:
    shape: Tuple[int, ...] = ()
    stride: Tuple[int, ...] = ()
    for l in layouts:
        shape += l.shape
        stride += l.stride
    return _unchecked(FlatLayout, shape, stride)


def column_major(shape: Sequence[int]) -> FlatLayout:
    """The layout of the identity: compact, first entry fastest."""
    return layout_of(identity(shape))


class TupleMorphism(_Record):
    __slots__ = ("domain", "codomain", "amap")  # amap: 0 = basepoint, else 1-based position

    def __init__(self, domain: tuple, codomain: tuple, amap: tuple) -> None:
        _as_tuples(self, domain, codomain, amap)
        m, n = len(self.domain), len(self.codomain)
        if len(self.amap) != m:
            raise LayoutError(f"map length {len(self.amap)} != domain rank {m}")
        _check_ints(self.amap, "map value", self.amap)
        seen = set()
        for i, a in enumerate(self.amap):
            if a == 0:
                continue
            if not 1 <= a <= n:
                raise LayoutError(f"map value {a} out of range 1..{n}")
            if a in seen:
                raise LayoutError(f"map hits codomain position {a} twice")
            seen.add(a)
            if self.domain[i] != self.codomain[a - 1]:
                raise LayoutError(  # each entry written on a stack, a refused tree too
                    f"entry mismatch: domain[{i}]={_str(self.domain[i])} but "
                    f"codomain[{a - 1}]={_str(self.codomain[a - 1])}"
                )
        _check_entries(self.domain, 1, "domain entry", self.domain)
        _check_entries(self.codomain, 1, "codomain entry", self.codomain)

    # -- basic structure ---------------------------------------------------

    @property
    def image(self) -> Tuple[int, ...]:
        return tuple(a for a in self.amap if a != 0)

    def is_non_degenerate(self) -> bool:
        return all(a == 0 for s, a in zip(self.domain, self.amap) if s == 1)

    def is_standard_form(self) -> bool:
        """Whether each codomain position is hit, or is a cofactor other than 1
        whose next position is hit: the last one is hit, if there is one."""
        img = set(self.image)
        return all(
            j in img or (t != 1 and j + 1 in img) for j, t in enumerate(self.codomain, 1)
        )

    def is_injective(self) -> bool:
        return all(a != 0 for a in self.amap)

    def __str__(self) -> str:
        return _format_arrow(self.domain, self.amap, self.codomain)


def _format_arrow(domain: Nested, amap: Sequence[int], codomain: Nested) -> str:
    """Arrow text ``domain--(a_1,...)-->codomain``, shared with nest morphisms."""
    text = "(" + ",".join(str(a) for a in amap) + ")"
    return f"{format_nested(domain)}--{text}-->{format_nested(codomain)}"


def identity(shape: Sequence[int]) -> TupleMorphism:
    _check_sequence(shape, "shape")
    t = tuple(shape)
    return TupleMorphism(t, t, tuple(range(1, len(t) + 1)))


def compose_morphisms(f: TupleMorphism, g: TupleMorphism) -> TupleMorphism:
    """g ∘ f; the basepoint absorbs."""
    if f.codomain != g.domain:
        raise LayoutError(
            f"codomain {f.codomain} of f does not match domain {g.domain} of g"
        )
    amap = tuple(0 if a == 0 else g.amap[a - 1] for a in f.amap)
    return _unchecked(TupleMorphism, f.domain, g.codomain, amap)


def layout_of(f: TupleMorphism) -> FlatLayout:
    """The flat layout encoded by ``f``.  It is valid by construction: the
    domain entries are the morphism's, in 1..2^63-1, and the strides are
    prefix products of its codomain, checked where they are taken.  The
    product of the whole codomain is no stride, so it is not taken."""
    pre = _prefix_products(f.codomain[:-1])
    stride = tuple(0 if a == 0 else pre[a - 1] for a in f.amap)
    return _unchecked(FlatLayout, f.domain, stride)


def realize(f: TupleMorphism) -> List[int]:
    """The function [0, size(domain)) -> [0, size(codomain)) induced by ``f``:
    route each domain axis to its codomain axis, zero elsewhere."""
    out = []
    for x in range(checked_prod(f.domain)):
        coord = _colex_inv(f.domain, x)
        ycoord = [0] * len(f.codomain)
        for i, a in enumerate(f.amap):
            if a != 0:
                ycoord[a - 1] = coord[i]
        out.append(_colex(f.codomain, ycoord))
    return out


def standard_representation(layout: FlatLayout) -> TupleMorphism:
    """The canonical morphism encoding a tractable flat layout; a layout is
    tractable exactly when it has one.  Unit-shape modes go to the basepoint,
    so the result is always non-degenerate and of standard form.  The engine reads the
    codomain and map as lists (:func:`_standard`); only this edge wraps them."""
    cod, amap = _tractable(layout.shape, layout.stride)
    return _unchecked(TupleMorphism, layout.shape, tuple(cod), tuple(amap))


# -- operation suite -------------------------------------------------------


def sum_morphisms(f: TupleMorphism, g: TupleMorphism) -> TupleMorphism:
    """Disjoint union: domains and codomains concatenate, g's map shifts."""
    n = len(f.codomain)
    amap = f.amap + tuple(0 if a == 0 else a + n for a in g.amap)
    return _unchecked(TupleMorphism, f.domain + g.domain, f.codomain + g.codomain, amap)


def concat_morphisms(fs: Sequence[TupleMorphism]) -> TupleMorphism:
    """Concatenation of morphisms sharing a codomain with disjoint images."""
    if not fs:
        raise LayoutError("cannot concatenate zero morphisms")
    cod = fs[0].codomain
    seen: set = set()
    domain: Tuple[int, ...] = ()
    amap: Tuple[int, ...] = ()
    for f in fs:
        if f.codomain != cod:
            raise LayoutError("concatenation requires a common codomain")
        if seen & set(f.image):
            raise LayoutError("concatenation requires disjoint images")
        seen |= set(f.image)
        domain += f.domain
        amap += f.amap
    return _unchecked(TupleMorphism, domain, cod, amap)


def squeeze_m(f: TupleMorphism) -> TupleMorphism:
    """Drop unit entries on both sides; strides are unaffected because unit
    codomain entries contribute trivial prefix factors."""
    kept = [j for j, t in enumerate(f.codomain, 1) if t != 1]
    reindex = {j: p for p, j in enumerate(kept, 1)}
    modes = [(s, 0 if a == 0 else reindex[a]) for s, a in zip(f.domain, f.amap) if s != 1]
    domain = tuple(s for s, _ in modes)
    codomain = tuple(f.codomain[j - 1] for j in kept)
    return _unchecked(TupleMorphism, domain, codomain, tuple(a for _, a in modes))


def sort_m(f: TupleMorphism) -> TupleMorphism:
    """Precompose with the permutation putting basepoint modes first (by
    shape, then index) and the remaining modes in codomain order."""
    order = sorted(
        range(len(f.amap)), key=lambda i: (f.amap[i] != 0, f.amap[i] or f.domain[i], i)
    )
    domain = tuple(f.domain[i] for i in order)
    return _unchecked(TupleMorphism, domain, f.codomain, tuple(f.amap[i] for i in order))


def coalesce_m(f: TupleMorphism) -> TupleMorphism:
    """Merge adjacent modes mapping consecutively (or jointly to the
    basepoint) after squeezing; encodes the coalesce of the encoded layout.
    One pass over the modes collects the runs, one over the codomain merges
    the positions each run covers."""
    f = squeeze_m(f)
    runs: List[list] = []  # [size, first, last]; positions are 0 for the basepoint
    for s, a in zip(f.domain, f.amap):
        last = runs[-1][2] if runs else -1
        if a == last == 0 or (last > 0 and a == last + 1):
            runs[-1][0] = checked_mul(runs[-1][0], s)
            runs[-1][2] = a
        else:
            runs.append([s, a, a])
    # the last position of the run that starts at each position
    ends = list(range(len(f.codomain) + 1))
    for _, first, last in runs:
        ends[first] = last
    codomain: List[int] = []
    merged = [0] * len(ends)  # the new position of each run's first
    j = 1
    while j < len(ends):
        # a merged product is the size of its run, checked in the first pass
        codomain.append(prod(f.codomain[j - 1 : ends[j]]))
        merged[j] = len(codomain)
        j = ends[j] + 1
    domain = tuple(s for s, _, _ in runs)
    amap = tuple(merged[first] for _, first, _ in runs)
    return _unchecked(TupleMorphism, domain, tuple(codomain), amap)


def complement_m(f: TupleMorphism) -> TupleMorphism:
    """The inclusion of the codomain positions missed by an injective ``f``."""
    if not f.is_injective():
        raise LayoutError(f"{f} is not injective, so has no complement")
    img = set(f.image)
    missed = [j for j in range(1, len(f.codomain) + 1) if j not in img]
    return _unchecked(
        TupleMorphism, tuple(f.codomain[j - 1] for j in missed), f.codomain, tuple(missed)
    )
