"""Tuple morphisms: tractable pointed maps between flat index tuples.

A morphism ``f : (s_1..s_m) -> (t_1..t_n)`` carries a map ``alpha`` with
``alpha[i] == 0`` meaning the basepoint (the entry is dropped) and
``alpha[i] == j > 0`` meaning mode ``i`` lands on codomain position ``j``
(1-based), which forces ``s_i == t_j``.  No positive value may occur twice.

Each morphism encodes the flat layout whose stride at mode ``i`` is the
product of the codomain entries before position ``alpha[i]`` (0 for the
basepoint); conversely every tractable flat layout has a canonical standard
representation recovered by :func:`standard_representation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import LayoutError, NotTractableError
from .flat import FlatLayout, _standard_modes, _unchecked
from .shapes import (
    Nested,
    _check_entries,
    colex,
    colex_inv,
    format_nested,
    prefix_products,
    size,
)


@dataclass(frozen=True)
class TupleMorphism:
    domain: Tuple[int, ...]
    codomain: Tuple[int, ...]
    amap: Tuple[int, ...]  # 0 = basepoint, else 1-based codomain position

    def __post_init__(self) -> None:
        m, n = len(self.domain), len(self.codomain)
        if len(self.amap) != m:
            raise LayoutError(f"map length {len(self.amap)} != domain rank {m}")
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
    walk = _standard_modes(layout.shape, layout.stride)
    if walk is None:
        raise NotTractableError(f"{layout} is not tractable")
    return _unchecked(TupleMorphism, layout.shape, *walk)


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
