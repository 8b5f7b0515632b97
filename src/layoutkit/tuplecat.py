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
taken; what the engine derives from valid values skips the checks.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from math import prod
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import LayoutError, NotComplementableError, NotTractableError
from .shapes import (
    Nested,
    _check_entries,
    _check_ints,
    checked_add,
    checked_mul,
    colex,
    colex_inv,
    format_nested,
    prefix_products,
    size,
)


def _unchecked(cls, *values):
    """The frozen dataclass ``cls`` with these field values, skipping its
    ``__post_init__``: only for values the engine derives from valid ones."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


def _returns(op, *args):
    """The result of ``op(*args)``, or None where the operation is undefined."""
    with suppress(LayoutError):
        return op(*args)


class _Predicates:
    """The predicates of flat and nested layouts, each answered by its operation."""

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


@dataclass(frozen=True)
class FlatLayout(_Predicates):
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
        return size(self.shape)

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

    def coalesce(self) -> "FlatLayout":
        """The unique minimal-rank flat layout with the same layout function:
        drop unit modes, then merge adjacent modes with s_i*d_i == d_{i+1}."""
        return _unchecked(FlatLayout, *_coalesce_modes(self.shape, self.stride))

    # -- predicates --------------------------------------------------------

    def is_tractable(self) -> bool:
        """Whether the layout has a standard representation, i.e. is the layout
        of a tuple morphism.  Unit modes count: a morphism gives every mode it
        carries the product of the codomain entries before it, so the strides
        of ``(4,1):(1,3)`` would have to form a chain, and they do not."""
        return _standard_modes(self) is not None

    def complement(self, n: Optional[int] = None) -> "FlatLayout":
        """The coalesced sorted layout B with self ⋆ B compact (of total size
        ``n`` when given): the layout of the complement of the standard
        representation of the non-unit modes, then ``n`` over the product of
        its codomain."""
        f = _standard_modes(self.squeeze())
        if f is None or not f.is_injective():
            raise NotComplementableError(f"{self} is not complementable")
        c = layout_of(complement_m(f))
        if n is not None:
            _check_ints((n,), "complement size", self)
            # layout_of took the product of all but the last entry, checked
            cod = f.codomain
            total = checked_mul(cod[-1], prod(cod[:-1])) if cod else 1
            if n < 1 or n % total != 0:
                raise NotComplementableError(
                    f"{self} is not {n}-complementable: {n} is not a positive multiple of {total}"
                )
            _check_entries((n,), 1, "complement size", self)
            c = _unchecked(FlatLayout, c.shape + (n // total,), c.stride + (total,))
        return c.coalesce()

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


def _standard_modes(layout: FlatLayout) -> Optional["TupleMorphism"]:
    """The standard representation of ``layout``, or None when it is not
    tractable.  One pass in (stride, shape, index) order: each nonzero stride
    must be a multiple of s*d of the mode before, unit modes included; each
    non-unit mode adds its stride's cofactor (unless 1) and its shape as
    codomain entries; the rest map to the basepoint.  Its products are not
    returned, so they are not checked."""
    entries: list = []
    amap = [0] * layout.rank
    chain = prev = 1
    for d, s, i in sorted(zip(layout.stride, layout.shape, range(layout.rank))):
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
    return _unchecked(TupleMorphism, layout.shape, tuple(entries), tuple(amap))


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


@dataclass(frozen=True)
class TupleMorphism:
    domain: Tuple[int, ...]
    codomain: Tuple[int, ...]
    amap: Tuple[int, ...]  # 0 = basepoint, else 1-based codomain position

    def __post_init__(self) -> None:
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
                raise LayoutError(
                    f"entry mismatch: domain[{i}]={self.domain[i]} but "
                    f"codomain[{a - 1}]={self.codomain[a - 1]}"
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
        img = set(self.image)
        n = len(self.codomain)
        if n > 1 and n not in img:
            return False
        for j in range(1, n):  # 1-based positions below n
            if j not in img and (self.codomain[j - 1] == 1 or (j + 1) not in img):
                return False
        return True

    def is_injective(self) -> bool:
        return all(a != 0 for a in self.amap)

    def __str__(self) -> str:
        return _format_arrow(self.domain, self.amap, self.codomain)


def _format_arrow(domain: Nested, amap: Sequence[int], codomain: Nested) -> str:
    """Arrow text ``domain--(a_1,...)-->codomain``, shared with nest morphisms."""
    text = "(" + ",".join(str(a) for a in amap) + ")"
    return f"{format_nested(domain)}--{text}-->{format_nested(codomain)}"


def identity(shape: Sequence[int]) -> TupleMorphism:
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
    pre = prefix_products(f.codomain[:-1])
    stride = tuple(0 if a == 0 else pre[a - 1] for a in f.amap)
    return _unchecked(FlatLayout, f.domain, stride)


def realize(f: TupleMorphism) -> List[int]:
    """The function [0, size(domain)) -> [0, size(codomain)) induced by ``f``:
    route each domain axis to its codomain axis, zero elsewhere."""
    out = []
    for x in range(size(f.domain)):
        coord = colex_inv(f.domain, x)
        ycoord = [0] * len(f.codomain)
        for i, a in enumerate(f.amap):
            if a != 0:
                ycoord[a - 1] = coord[i]
        out.append(colex(f.codomain, ycoord))
    return out


def standard_representation(layout: FlatLayout) -> TupleMorphism:
    """The canonical morphism encoding a tractable flat layout; a layout is
    tractable exactly when it has one.  Unit-shape modes go to the basepoint,
    so the result is always non-degenerate and of standard form."""
    f = _standard_modes(layout)
    if f is None:
        raise NotTractableError(f"{layout} is not tractable")
    return f


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
    keep_cod = [j for j, t in enumerate(f.codomain) if t != 1]
    reindex = {j + 1: p + 1 for p, j in enumerate(keep_cod)}
    domain: List[int] = []
    amap: List[int] = []
    for s, a in zip(f.domain, f.amap):
        if s == 1:
            continue
        domain.append(s)
        amap.append(0 if a == 0 else reindex[a])
    codomain = tuple(f.codomain[j] for j in keep_cod)
    return _unchecked(TupleMorphism, tuple(domain), codomain, tuple(amap))


def sort_m(f: TupleMorphism) -> TupleMorphism:
    """Precompose with the permutation putting basepoint modes first (by
    shape, then index) and the remaining modes in codomain order."""
    stars = sorted(
        (i for i, a in enumerate(f.amap) if a == 0), key=lambda i: (f.domain[i], i)
    )
    hits = sorted((i for i, a in enumerate(f.amap) if a != 0), key=lambda i: f.amap[i])
    order = stars + hits
    domain = tuple(f.domain[i] for i in order)
    return _unchecked(TupleMorphism, domain, f.codomain, tuple(f.amap[i] for i in order))


def coalesce_m(f: TupleMorphism) -> TupleMorphism:
    """Merge adjacent modes mapping consecutively (or jointly to the
    basepoint) after squeezing; encodes the coalesce of the encoded layout."""
    f = squeeze_m(f)
    m = len(f.domain)

    dom_classes: List[List[int]] = []
    for i in range(m):
        if dom_classes:
            p = dom_classes[-1][-1]
            if (f.amap[p] == 0 and f.amap[i] == 0) or (
                f.amap[p] != 0 and f.amap[i] == f.amap[p] + 1
            ):
                dom_classes[-1].append(i)
                continue
        dom_classes.append([i])

    # codomain positions j, j+1 merge when consecutive domain modes hit them
    joined = set()
    for i in range(m - 1):
        if f.amap[i] != 0 and f.amap[i + 1] == f.amap[i] + 1:
            joined.add(f.amap[i])
    cod_classes: List[List[int]] = []
    for j in range(1, len(f.codomain) + 1):
        if cod_classes and (j - 1) in joined:
            cod_classes[-1].append(j)
        else:
            cod_classes.append([j])
    cod_class_of = {j: c for c, cls in enumerate(cod_classes) for j in cls}

    domain = tuple(size(tuple(f.domain[i] for i in cls)) for cls in dom_classes)
    codomain = tuple(size(tuple(f.codomain[j - 1] for j in cls)) for cls in cod_classes)
    amap = tuple(
        0 if f.amap[cls[0]] == 0 else cod_class_of[f.amap[cls[0]]] + 1
        for cls in dom_classes
    )
    return _unchecked(TupleMorphism, domain, codomain, amap)


def complement_m(f: TupleMorphism) -> TupleMorphism:
    """The inclusion of the codomain positions missed by an injective ``f``."""
    if not f.is_injective():
        raise LayoutError(f"{f} is not injective, so has no complement")
    img = set(f.image)
    missed = [j for j in range(1, len(f.codomain) + 1) if j not in img]
    return _unchecked(
        TupleMorphism, tuple(f.codomain[j - 1] for j in missed), f.codomain, tuple(missed)
    )
