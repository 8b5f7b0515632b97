"""Nested layouts and nest morphisms: the two sides of the Nest category.

A :class:`Layout` holds congruent ``shape:stride`` trees as a nest morphism
does: its nesting once, in the shape tree, and its entries once, in a flat
form, whose function is the layout's.  A nest morphism is a tuple morphism
between the flattenings of two nested tuples.  Refining a side along a
refinement of its tree keeps the realized function (pullback refines the
codomain, pushforward the domain); that transport is written once, as an
index map over flat pieces.  Pullback and pushforward wrap it as tuple
morphisms; composition, divide and product read each stride through it.
Entries are range-checked where they enter (the constructors,
:func:`nest_morphism` and :func:`mutual_refinement`) and products where they
are taken; what the engine derives skips validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import prod
from typing import List, Optional, Sequence, Tuple

from .errors import LayoutError, NotComposableError
from .shapes import (
    Nested,
    _check_entries,
    _check_ints,
    _flat_pair,
    _pieces,
    _same,
    _str,
    _substitute,
    depth,
    flatten,
    length,
    prefix_products,
    rank,
    substitute,
)
from .tuplecat import (
    FlatLayout,
    TupleMorphism,
    _coalesce_modes,
    _format_arrow,
    _LayoutFunction,
    _unchecked,
    coalesce_m,
    complement_m,
    compose_morphisms,
    concat_flat,
    concat_morphisms,
    column_major,
    layout_of,
    realize,
    standard_representation,
)


@dataclass(frozen=True)
class NestMorphism:
    domain: Nested
    codomain: Nested
    fmap: TupleMorphism

    def __post_init__(self) -> None:
        domain, codomain = flatten(self.domain), flatten(self.codomain)
        if domain != self.fmap.domain:
            raise LayoutError(
                f"domain {_str(self.domain)} does not flatten to {self.fmap.domain}"
            )
        if codomain != self.fmap.codomain:
            raise LayoutError(
                f"codomain {_str(self.codomain)} does not flatten to {self.fmap.codomain}"
            )
        _check_entries(domain + codomain, 1, "entry", self)

    def is_standard_form(self) -> bool:
        return self.fmap.is_standard_form() and depth(self.codomain) <= 1

    def is_non_degenerate(self) -> bool:
        return self.fmap.is_non_degenerate()

    def realize(self) -> List[int]:
        return realize(self.fmap)

    def __str__(self) -> str:
        return _format_arrow(self.domain, self.fmap.amap, self.codomain)

    def __repr__(self) -> str:  # each tree written on a stack, where the built-in recurses
        d, c = _str(self.domain, repr), _str(self.codomain, repr)
        return f"NestMorphism(domain={d}, codomain={c}, fmap={self.fmap!r})"


@dataclass(frozen=True)
class Refinement:
    """A refinement of ``coarse``, as :func:`~layoutkit.shapes._pieces` reads and refuses it."""

    fine: Nested
    coarse: Nested

    def __post_init__(self) -> None:
        fine = flatten(self.fine)
        _check_ints(fine + flatten(self.coarse), "entry", self)
        _pieces(self.fine, self.coarse)  # each coarse entry a checked product of fine ones
        _check_entries(fine, 1, "entry", self.fine)

    def __repr__(self) -> str:  # each tree written on a stack, where the built-in recurses
        return f"Refinement(fine={_str(self.fine, repr)}, coarse={_str(self.coarse, repr)})"


@dataclass(frozen=True)
class MutualRefinement:
    t_ref: Refinement
    u_ref: Refinement

    def __post_init__(self) -> None:
        if not divides(self.t_ref.fine, self.u_ref.fine):
            raise LayoutError(
                f"{_str(self.t_ref.fine)} is not a flat prefix of {_str(self.u_ref.fine)}"
            )


def nest_morphism(domain: Nested, codomain: Nested, amap: Sequence[int]) -> NestMorphism:
    """The morphism ``amap`` between the flattenings of two trees, built
    unchecked: its tuple morphism has checked every entry."""
    fmap = TupleMorphism(flatten(domain), flatten(codomain), tuple(amap))
    return _unchecked(NestMorphism, domain, codomain, fmap)


def compose_nest(f: NestMorphism, g: NestMorphism) -> NestMorphism:
    """g ∘ f (flattened codomain of f must equal flattened domain of g)."""
    return _unchecked(NestMorphism, f.domain, g.codomain, compose_morphisms(f.fmap, g.fmap))


def _as_tree(entries: Sequence[int]) -> Nested:
    """A single entry as a bare integer, any other number of them as a tuple."""
    return entries[0] if len(entries) == 1 else tuple(entries)


# -- refinement transport --------------------------------------------------


def _cut(amap: Sequence[int], dom: Sequence, cod: Sequence) -> List[int]:
    """``amap`` with domain entry ``i`` cut into the flat pieces ``dom[i]`` and codomain
    entry ``j`` into ``cod[j]``, a hit entry as its image: positions among ``cod``'s pieces."""
    ends = list(accumulate(map(len, cod), initial=0))  # entry j ends at ends[j]
    out: List[int] = []
    for a, p in zip(amap, dom):
        out.extend(range(ends[a - 1] + 1, ends[a] + 1) if a else [0] * len(p))
    return out


def _cut_m(f: TupleMorphism, dom: Sequence, cod: Sequence) -> TupleMorphism:
    """:func:`_cut` of ``f``'s map, as the morphism between the concatenated pieces."""
    joined = (tuple(chain.from_iterable(pieces)) for pieces in (dom, cod))
    return _unchecked(TupleMorphism, *joined, tuple(_cut(f.amap, dom, cod)))


def _onto(amap: Sequence[int], parts: Sequence, cod: Sequence) -> list:
    """``cod`` with each entry that ``amap`` hits replaced by the hitting entry's part."""
    out = list(cod)
    for a, part in zip(amap, parts):
        if a:
            out[a - 1] = part
    return out


def pullback(f: NestMorphism, tref: Refinement) -> Tuple[NestMorphism, Refinement]:
    """Refine the codomain along ``tref`` and each hit domain entry as its image,
    keeping the layout function: :func:`_cut_m` on the flat pieces of both."""
    if not _same(tref.coarse, f.codomain):
        raise LayoutError(f"{_str(tref.coarse)} is not the codomain of {f}")
    rel, cod = _pieces(tref.fine, f.codomain)
    hit = list(zip(f.fmap.domain, f.fmap.amap))
    fine = _substitute(f.domain, iter([rel[a - 1] if a else s for s, a in hit]))
    fmap = _cut_m(f.fmap, [cod[a - 1] if a else (s,) for s, a in hit], cod)
    return _unchecked(NestMorphism, fine, tref.fine, fmap), _unchecked(Refinement, fine, f.domain)


def pushforward(f: NestMorphism, sref: Refinement) -> Tuple[NestMorphism, Refinement]:
    """Refine the domain along ``sref`` and each hit codomain entry as the entry
    hitting it, keeping the layout function: :func:`_cut_m` on the flat pieces of both."""
    if not _same(sref.coarse, f.domain):
        raise LayoutError(f"{_str(sref.coarse)} is not the domain of {f}")
    rel, dom = _pieces(sref.fine, f.domain)
    fine = _substitute(f.codomain, iter(_onto(f.fmap.amap, rel, f.fmap.codomain)))
    fmap = _cut_m(f.fmap, dom, _onto(f.fmap.amap, dom, [(t,) for t in f.fmap.codomain]))
    return _unchecked(NestMorphism, sref.fine, fine, fmap), _unchecked(Refinement, fine, f.codomain)


# -- mutual refinement -----------------------------------------------------


def divides(fine_a: Nested, fine_b: Nested) -> bool:
    """Whether ``fine_a`` is a flat prefix of ``fine_b``: some concatenation
    ``fine_a ⋆ rest`` flattens to ``fine_b``'s flattening."""
    fa, fb = flatten(fine_a), flatten(fine_b)
    return fb[: len(fa)] == fa


def _refine(x: Sequence[int], y: Sequence[int]) -> Optional[Tuple[list, list]]:
    """Each entry's flat pieces in the greedy mutual refinement of ``x`` and
    ``y``, or None: two pointers split off the smaller current entry as a
    piece of both whenever it divides the larger."""
    x, y = list(x), list(y)
    x_pieces: List[List[int]] = [[] for _ in x]
    y_pieces: List[List[int]] = [[] for _ in y]
    i = j = 0
    while i < len(x) and j < len(y):
        piece = min(x[i], y[j])
        if max(x[i], y[j]) % piece != 0:
            return None
        x_pieces[i].append(piece)
        y_pieces[j].append(piece)
        x[i] //= piece
        y[j] //= piece
        if x[i] == 1:
            i += 1
        if y[j] == 1:
            j += 1
    for k in range(j, len(y)):  # beyond x, what is left of each entry of y is one piece
        y_pieces[k].append(y[k])
    return (x_pieces, y_pieces) if i == len(x) else None


def mutual_refinement(t: Nested, u: Nested) -> Optional[MutualRefinement]:
    """Refinements T' of ``t`` and U' of ``u`` with T' a flat prefix of U',
    each entry re-nested as its :func:`_refine` pieces; None where there are
    none.  Raises :class:`LayoutError` for an entry below 1 and
    :class:`ArithmeticOverflowError` for one beyond the signed 64-bit range."""
    x, y = flatten(t), flatten(u)
    _check_entries(x, 1, "entry", t)
    _check_entries(y, 1, "entry", u)
    pieces = _refine(x, y)
    if pieces is None:
        return None
    return _unchecked(
        MutualRefinement,
        _unchecked(Refinement, _substitute(t, map(_as_tree, pieces[0])), t),
        _unchecked(Refinement, _substitute(u, map(_as_tree, pieces[1])), u),
    )


# -- composition -----------------------------------------------------------


def make_composable(
    f: NestMorphism, g: NestMorphism, mr: MutualRefinement
) -> Tuple[NestMorphism, NestMorphism]:
    """Transport ``f`` and ``g`` across a mutual refinement of
    (codomain(f), domain(g)) so that they become composable, without
    changing either layout function.

    The refined codomain of ``f`` is a flat prefix of the refined domain of
    ``g``, so the refined ``f`` keeps its map and takes that domain as its
    codomain.
    """
    if not (_same(mr.t_ref.coarse, f.codomain) and _same(mr.u_ref.coarse, g.domain)):
        raise LayoutError(
            "mutual refinement does not lie over (codomain(f), domain(g))"
        )
    f_fine, _ = pullback(f, mr.t_ref)
    g_fine, _ = pushforward(g, mr.u_ref)
    fmap = _unchecked(TupleMorphism, f_fine.fmap.domain, g_fine.fmap.domain, f_fine.fmap.amap)
    return _unchecked(NestMorphism, f_fine.domain, mr.u_ref.fine, fmap), g_fine


# -- morphism-level operations ---------------------------------------------


def concat_nm(fs: Sequence[NestMorphism]) -> NestMorphism:
    """One morphism with one domain mode per operand; images must be
    disjoint and the codomains equal; the tuple morphisms' concatenation
    refuses zero operands."""
    for f in fs[1:]:
        if not _same(f.codomain, fs[0].codomain):
            raise LayoutError("concatenation requires a common codomain")
    fmap = concat_morphisms([f.fmap for f in fs])
    return _unchecked(NestMorphism, tuple(f.domain for f in fs), fs[0].codomain, fmap)


def complement_nm(f: NestMorphism) -> NestMorphism:
    """The inclusion of the codomain entries missed by an injective ``f``."""
    fc = complement_m(f.fmap)
    return _unchecked(NestMorphism, _as_tree(fc.domain), f.codomain, fc)


def coalesce_nm(f: NestMorphism) -> NestMorphism:
    """Merge adjacent modes mapping consecutively; encodes the coalesce of
    the encoded layout."""
    c = coalesce_m(f.fmap)
    return _unchecked(NestMorphism, _as_tree(c.domain), _as_tree(c.codomain), c)


def logical_divide_m(f: NestMorphism, g: NestMorphism) -> NestMorphism:
    """f ∘ (g, complement(g)); requires flattened codomain(g) = domain(f)."""
    return compose_nest(concat_nm([g, complement_nm(g)]), f)


def logical_product_m(f: NestMorphism, g: NestMorphism) -> NestMorphism:
    """(f, complement(f) ∘ g); requires flattened codomain(g) to equal the
    flattened domain of complement(f)."""
    return concat_nm([f, compose_nest(g, complement_nm(f))])


# -- admissibility ---------------------------------------------------------


def is_admissible_for_composition(a: FlatLayout, b: FlatLayout) -> bool:
    """A sufficient condition for the composite of ``a`` (no unit shapes, no
    zero strides) with ``b`` to exist: each of d_i and s_i*d_i nests between
    consecutive prefix products of shape(b), and the stride intervals of
    ``a``'s modes are pairwise disjoint within the range addressed by all
    but its last mode."""
    if any(s == 1 for s in a.shape) or any(d == 0 for d in a.stride):
        raise LayoutError(f"{a} has unit shape entries or zero strides")
    u = b.shape
    p = len(u)
    pre = [1]
    for e in u:
        pre.append(pre[-1] * e)

    def nests(v: int) -> bool:
        # some window [pre[k-1], pre[k]] with pre[k-1] | v and v | pre[k],
        # properly when k < p
        for k in range(1, p + 1):
            if v % pre[k - 1] == 0 and pre[k] % v == 0 and (k == p or v < pre[k]):
                return True
        return p == 0 and v == 1

    for s, d in zip(a.shape, a.stride):
        if not (nests(d) and nests(s * d)):
            return False

    bound = prod(a.shape[:-1])
    spans = []
    for s, d in zip(a.shape, a.stride):
        lo, hi = max(d, 1), min(d * (s - 1), bound - 1)
        if lo <= hi:
            spans.append((lo, hi))
    spans.sort()
    for (_, hi1), (lo2, _) in zip(spans, spans[1:]):
        if lo2 <= hi1:
            return False
    return True


# -- nested layouts --------------------------------------------------------


@dataclass(frozen=True, init=False)
class Layout(_LayoutFunction):
    """Congruent trees ``shape:stride``, held as the shape tree and the flat form that the
    constructor's paired walk makes (or the engine hands on); ``stride`` is nested on a read."""

    shape: Nested
    _flat: FlatLayout = field(init=False, repr=False)

    def __init__(self, shape: Nested, stride: Nested) -> None:
        flat = _flat_pair(shape, stride)
        if flat is None:
            raise LayoutError(f"shape {_str(shape)} and stride {_str(stride)} are not congruent")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_flat", FlatLayout(*flat))  # its entry checks and messages

    @property
    def stride(self) -> Nested:
        return _substitute(self.shape, iter(self._flat.stride))

    def __repr__(self) -> str:
        return f"Layout(shape={_str(self.shape, repr)}, stride={_str(self.stride, repr)})"

    @staticmethod
    def of_flat(flat: FlatLayout) -> "Layout":
        """Wrap a flat layout, kept as tuples: rank 0 becomes 1:0, rank 1 becomes depth 0."""
        flat = _padded(flat)
        return _unchecked(Layout, _as_tree(flat.shape), flat)

    # -- attributes --------------------------------------------------------

    def flat(self) -> FlatLayout:
        """The flat form, kept since the layout was built."""
        return self._flat

    def length(self) -> int:
        return length(self.shape)

    def rank(self) -> int:
        return rank(self.shape)

    def depth(self) -> int:
        return depth(self.shape)

    def complexity(self) -> int:
        return self.length() + self.depth()

    # -- coalescing --------------------------------------------------------

    def coalesce(self) -> "Layout":
        """The minimal-complexity layout with the same function."""
        return Layout.of_flat(self.flat().coalesce())

    def coalesce_relative(self, shape_bar: Nested) -> "Layout":
        """Coalesce each group of modes over an entry of ``shape_bar`` (which the shape
        must refine), keeping the coarse grouping; the walk that checks it gives the groups."""
        pieces = _pieces(self.shape, shape_bar)[1]
        return _unchecked(Layout, *_coalesced(shape_bar, pieces, self.flat().stride))

    # -- complement --------------------------------------------------------

    def complement(self, n: Optional[int] = None) -> "Layout":
        return Layout.of_flat(self.flat().complement(n))

    # -- algebra (delegating to the morphism engine) -----------------------

    def compose(self, other: "Layout") -> "Layout":
        """The layout of ``Φ_other ∘ Φ_self``: the weak composite coalesced
        relative to the shape of ``self``, each leaf's pieces where they are cut."""
        return _unchecked(Layout, *_coalesced(self.shape, *_composite(self.flat(), other.flat())))

    def logical_divide(self, tiler: "Layout") -> "Layout":
        """``self ∘ (tiler, tiler*)``, tiler* the complement in size(self): one flat
        composition, nested once as (shape(tiler), the complement's tree)."""
        flat, t = self.flat(), tiler.flat()
        c = _padded(t.complement(flat.size()))
        tree = (tiler.shape, _as_tree(c.shape))
        return _unchecked(Layout, *_coalesced(tree, *_composite(concat_flat([t, c]), flat)))

    def logical_product(self, other: "Layout") -> "Layout":
        """``(self, self* ∘ other)``, self* the complement in size(self)·cosize(other):
        one flat composition, nested once as (shape(self), shape(other))."""
        flat, b = self.flat(), other.flat()
        c = _padded(flat.complement(flat.size() * b.cosize()))
        s, part = _coalesced(other.shape, *_composite(b, c))
        return _unchecked(Layout, (self.shape, s), concat_flat([flat, part]))


def _padded(flat: FlatLayout) -> FlatLayout:
    """``flat``, or 1:0 in place of rank 0."""
    return flat if flat.shape else _unchecked(FlatLayout, (1,), (0,))


def _coalesced(tree: Nested, pieces: list, stride: Sequence) -> Tuple[Nested, FlatLayout]:
    """The shape nested like ``tree`` whose leaf ``i`` is the coalesce of the flat modes
    ``pieces[i]`` (strides in order from ``stride``), and its flat form: one piece is its
    own, 1:0 for a unit, so only a longer run needs :func:`_coalesce_modes`."""
    leaves, flat_s, flat_d, k = [], [], [], 0
    for p in pieces:
        if len(p) == 1:
            s, d = (p[0], stride[k]) if p[0] != 1 else (1, 0)
            flat_s.append(s)
            flat_d.append(d)
        else:
            s, d = _coalesce_modes(p, stride[k : k + len(p)])
            s, d = (s, d) if s else ((1,), (0,))
            flat_s += s
            flat_d += d
            s = _as_tree(s)
        leaves.append(s)
        k += len(p)
    shape, flat_s = _substitute(tree, iter(leaves)), tuple(flat_s)
    return shape, _unchecked(FlatLayout, shape if shape == flat_s else flat_s, tuple(flat_d))


def concat_layouts(layouts: Sequence[Layout]) -> Layout:
    """(A, B, ...) as one layout with one mode per operand."""
    shape = tuple(l.shape for l in layouts)
    return _unchecked(Layout, shape, concat_flat([l.flat() for l in layouts]))


def substitute_profile(layout: Layout, prof) -> Layout:
    """Re-nest the entries of ``layout`` under a new profile of the same length:
    its shape, over the flat form it keeps."""
    return _unchecked(Layout, substitute(layout.flat().shape, prof), layout.flat())


def column_major_layout(shape: Nested) -> Layout:
    """The compact layout with the given shape, first entry fastest."""
    return _unchecked(Layout, shape, column_major(flatten(shape)))


# -- conversion to and from nest morphisms ----------------------------------


def layout_of_nested(f: NestMorphism) -> Layout:
    """The layout encoded by ``f``, nested like its domain."""
    return _unchecked(Layout, f.domain, layout_of(f.fmap))


def standard_representation_nested(layout: Layout) -> NestMorphism:
    """Standard representation with the layout's shape tree as domain and a
    flat codomain."""
    fmap = standard_representation(layout.flat())
    return _unchecked(NestMorphism, layout.shape, fmap.codomain, fmap)


def compose_tractable(a: Layout, b: Layout) -> Layout:
    """The weak composite: a layout with function Φ_b ∘ Φ_a whose shape
    refines shape(a), before any coalescing, each leaf of shape(a) nested
    as its pieces."""
    pieces, stride = _composite(a.flat(), b.flat())
    flat = _unchecked(FlatLayout, tuple(chain.from_iterable(pieces)), stride)
    return _unchecked(Layout, _substitute(a.shape, map(_as_tree, pieces)), flat)


def _composite(flat: FlatLayout, b_flat: FlatLayout) -> Tuple[list, Tuple[int, ...]]:
    """Each mode of ``flat`` as its pieces, and the strides over them of the composite with
    ``b_flat`` (each operand flat, as its layout keeps it): the standard representations cut
    along :func:`_refine`, each piece's stride read through both cut maps, no morphism built."""
    if flat.cosize() > b_flat.size():
        raise NotComposableError(
            f"cosize {flat.cosize()} of the first layout exceeds size {b_flat.size()} "
            f"of the second"
        )
    f = standard_representation(flat)
    g = standard_representation(b_flat.coalesce())
    pieces = _refine(f.codomain, g.domain)
    if pieces is None:
        raise NotComposableError(
            f"no mutual refinement of {f.codomain} and {_as_tree(g.domain)}"
        )
    f_cod, g_dom = pieces
    f_dom = [f_cod[j - 1] if j else (s,) for s, j in zip(f.domain, f.amap)]
    g_cod = _onto(g.amap, g_dom, [(t,) for t in g.codomain])
    g_map = [0] + _cut(g.amap, g_dom, g_cod)  # f's cut codomain is a prefix of g's cut domain
    pre = (0,) + prefix_products(tuple(chain.from_iterable(g_cod))[:-1])  # 0: the basepoint
    return f_dom, tuple(pre[g_map[a]] for a in _cut(f.amap, f_dom, f_cod))
