"""Nested layouts and nest morphisms: the two sides of the Nest category.

A :class:`Layout` holds congruent ``shape:stride`` trees as a nest morphism
does: its nesting once, in the shape tree, and its entries once, in a flat
form, whose function is the layout's.  A nest morphism is a tuple morphism
between the flattenings of two nested tuples.  Refining a side along a
refinement of its tree keeps the realized function (pullback refines the
codomain, pushforward the domain); that transport is written once, as an
index map over flat pieces.  Pullback and pushforward wrap it as tuple
morphisms; composition, divide and product cut the first operand's map with it,
read each piece's stride off the coalesce of the second and return the composite
as cut, its pieces coalesced already.  Entries are
range-checked where they enter (the constructors, :func:`nest_morphism` and
:func:`mutual_refinement`) and products where they are taken; what the engine
derives skips validation.  Each class here is a :class:`_Record`.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import prod
from typing import List, Optional, Sequence, Tuple

from .errors import LayoutError, NotComposableError
from .shapes import (
    Nested,
    _check_entries,
    _check_ints,
    _check_sequence,
    _flat_pair,
    _pieces,
    _same,
    _str,
    _substitute,
    checked_mul,
    depth,
    flatten,
    length,
    rank,
    substitute,
)
from .tuplecat import (
    FlatLayout,
    TupleMorphism,
    _coalesce_modes,
    _complement,
    _format_arrow,
    _LayoutFunction,
    _Record,
    _tractable,
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


class NestMorphism(_Record):
    __slots__ = ("domain", "codomain", "fmap")

    def __init__(self, domain: Nested, codomain: Nested, fmap: TupleMorphism) -> None:
        _Record.__init__(self, domain, codomain, fmap)
        flat_d, flat_c = flatten(domain), flatten(codomain)  # checked, not fmap's: 2.0 == 2
        if flat_d != fmap.domain:
            raise LayoutError(f"domain {_str(domain)} does not flatten to {fmap.domain}")
        if flat_c != fmap.codomain:
            raise LayoutError(f"codomain {_str(codomain)} does not flatten to {fmap.codomain}")
        _check_entries(flat_d + flat_c, 1, "entry", self)

    def is_standard_form(self) -> bool:
        return self.fmap.is_standard_form() and depth(self.codomain) <= 1

    def is_non_degenerate(self) -> bool:
        return self.fmap.is_non_degenerate()

    def realize(self) -> List[int]:
        return realize(self.fmap)

    def __str__(self) -> str:
        return _format_arrow(self.domain, self.fmap.amap, self.codomain)


class Refinement(_Record):
    """A refinement of ``coarse``, as :func:`~layoutkit.shapes._pieces` reads and refuses it."""

    __slots__ = ("fine", "coarse")

    def __init__(self, fine: Nested, coarse: Nested) -> None:
        _Record.__init__(self, fine, coarse)
        fine = flatten(self.fine)
        _check_ints(fine + flatten(self.coarse), "entry", self)
        _pieces(self.fine, self.coarse)  # each coarse entry a checked product of fine ones
        _check_entries(fine, 1, "entry", self.fine)


class MutualRefinement(_Record):
    __slots__ = ("t_ref", "u_ref")

    def __init__(self, t_ref: Refinement, u_ref: Refinement) -> None:
        _Record.__init__(self, t_ref, u_ref)
        if not divides(t_ref.fine, u_ref.fine):
            raise LayoutError(f"{_str(t_ref.fine)} is not a flat prefix of {_str(u_ref.fine)}")


def nest_morphism(domain: Nested, codomain: Nested, amap: Sequence[int]) -> NestMorphism:
    """The morphism ``amap`` between the flattenings of two trees, built
    unchecked: its tuple morphism has checked every entry."""
    _check_sequence(amap, "amap")
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


class Layout(_LayoutFunction, _Record):
    """Congruent trees ``shape:stride``, held as the shape tree and the flat form that the
    constructor's paired walk makes (or the engine hands on); ``stride`` is nested on a read."""

    __slots__ = ("shape", "_flat")

    def __init__(self, shape: Nested, stride: Nested) -> None:
        flat = _flat_pair(shape, stride)
        if flat is None:
            raise LayoutError(f"shape {_str(shape)} and stride {_str(stride)} are not congruent")
        _Record.__init__(self, shape, FlatLayout(*flat))  # its entry checks and messages

    @property
    def stride(self) -> Nested:
        return _substitute(self.shape, iter(self._flat.stride))

    def __repr__(self) -> str:  # the stride, a property, in place of the flat form
        return f"Layout(shape={_str(self.shape, repr)}, stride={_str(self.stride, repr)})"

    @staticmethod
    def of_flat(flat: FlatLayout) -> "Layout":
        """Wrap a flat layout, kept as tuples: rank 0 becomes 1:0, rank 1 becomes depth 0."""
        flat = flat if flat.shape else _unchecked(FlatLayout, *_padded(flat.shape, flat.stride))
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
        must refine), keeping the coarse grouping; the walk that checks it gives the groups.
        One mode is its own, 1:0 for a unit, so only a longer group needs
        :func:`_coalesce_modes`.  Each leaf of ``shape_bar`` is the product of its group, so
        where every group coalesces to one mode the shape is ``shape_bar`` itself."""
        stride, leaves, flat_s, flat_d, k = self.flat().stride, [], [], [], 0
        for p in _pieces(self.shape, shape_bar)[1]:
            if len(p) == 1:
                s, d = (p[0], stride[k]) if p[0] != 1 else (1, 0)
                flat_s.append(s)
                flat_d.append(d)
            else:
                s, d = _padded(*_coalesce_modes(p, stride[k : k + len(p)]))
                flat_s += s
                flat_d += d
                s = _as_tree(s)
            leaves.append(s)
            k += len(p)
        shape = shape_bar if len(flat_s) == len(leaves) else _substitute(shape_bar, iter(leaves))
        return _unchecked(Layout, shape, _unchecked(FlatLayout, tuple(flat_s), tuple(flat_d)))

    # -- complement --------------------------------------------------------

    def complement(self, n: Optional[int] = None) -> "Layout":
        return Layout.of_flat(self.flat().complement(n))

    # -- algebra (delegating to the morphism engine) -----------------------

    def compose(self, other: "Layout") -> "Layout":
        """The layout of ``Φ_other ∘ Φ_self``: the weak composite, nested like ``self``, each
        leaf as its pieces where it is cut; those are coalesced already (see :func:`_composite`)."""
        return _unchecked(Layout, *_composite(self.shape, self.flat(), other.flat()))

    def logical_divide(self, tiler: "Layout") -> "Layout":
        """``self ∘ (tiler, tiler*)``, tiler* the complement in size(self): one flat
        composition, nested like (shape(tiler), the complement's tree)."""
        flat, t = self.flat(), tiler.flat()
        cs, cd = _padded(*_complement(t, flat.size()))
        both = _unchecked(FlatLayout, t.shape + cs, t.stride + cd)
        return _unchecked(Layout, *_composite((tiler.shape, _as_tree(cs)), both, flat))

    def logical_product(self, other: "Layout") -> "Layout":
        """``(self, self* ∘ other)``, self* the complement in size(self)·cosize(other):
        one flat composition, nested like (shape(self), shape(other))."""
        flat, b = self.flat(), other.flat()
        s, part = _composite(other.shape, b, flat.complement(flat.size() * b.cosize()))
        return _unchecked(Layout, (self.shape, s), concat_flat([flat, part]))


def _padded(shape: tuple, stride: tuple) -> Tuple[tuple, tuple]:
    """``shape:stride``, or 1:0 in place of rank 0."""
    return (shape, stride) if shape else ((1,), (0,))


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


def _composite(tree: Nested, flat: FlatLayout, b_flat: FlatLayout) -> Tuple[Nested, FlatLayout]:
    """The shape and flat form of the composite of ``flat`` with ``b_flat`` (each operand flat),
    nested like ``tree``, which flattens to ``flat``'s shape: ``flat``'s standard map cut along
    :func:`_refine` against the coalesce of ``b_flat``, whose pieces each read their mode's
    stride times the pieces before it, as its standard representation would give.  Where each
    mode of ``flat`` is one piece the shape is ``tree`` itself; otherwise each leaf is nested
    as its pieces.  Those are coalesced already: a mode's pieces lie in consecutive modes of
    the coalesce, and two of them would merge only where those two modes merge."""
    if flat.cosize() > b_flat.size():
        raise NotComposableError(
            f"cosize {flat.cosize()} of the first layout exceeds size {b_flat.size()} "
            f"of the second"
        )
    cod, amap = _tractable(flat.shape, flat.stride)
    g_dom, g_stride = _coalesce_modes(b_flat.shape, b_flat.stride)
    _tractable(g_dom, g_stride)  # only the check: b's strides are read off its coalesce
    pieces = _refine(cod, g_dom)
    if pieces is None:
        raise NotComposableError(f"no mutual refinement of {tuple(cod)} and {_as_tree(g_dom)}")
    f_cod, g_pieces = pieces
    f_dom = [f_cod[j - 1] if j else (s,) for s, j in zip(flat.shape, amap)]
    reads = [0]  # the basepoint, then each piece's stride: its mode's times the pieces before it
    for ps, d in zip(g_pieces, g_stride):
        reads += accumulate(ps[:-1], checked_mul, initial=d)
    stride = tuple(reads[a] for a in _cut(amap, f_dom, f_cod))  # f's pieces: a prefix of b's
    if len(stride) == len(f_dom):
        return tree, _unchecked(FlatLayout, flat.shape, stride)
    shape = tuple(chain.from_iterable(f_dom))
    return _substitute(tree, map(_as_tree, f_dom)), _unchecked(FlatLayout, shape, stride)
