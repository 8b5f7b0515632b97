"""Nested layouts and nest morphisms: the two sides of the Nest category.

A :class:`Layout` pairs a nested shape tuple with a congruent nested stride
tuple.  Its function is that of the flattened layout; the nesting groups
the results of composition, division and product.  A nest morphism is a
tuple morphism between the flattenings of two nested tuples.  Refining
either side along a refinement of its tree induces a new morphism with the
same realized function (pullback along a codomain refinement, pushforward
along a domain refinement).  Composition of layouts refines the middle
trees of two standard representations until one is a flat prefix of the
other.  Entries are range-checked where they enter (the constructors,
:func:`nest_morphism` and :func:`mutual_refinement`) and products where
they are taken; what the engine derives from valid values skips validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import LayoutError, NotComposableError, NotRefinementError
from .shapes import (
    Nested,
    _check_entries,
    _check_ints,
    _relative_modes,
    _substitute,
    congruent,
    depth,
    flatten,
    format_nested,
    length,
    rank,
    refines,
    relative_modes,
    size,
    substitute,
)
from .tuplecat import (
    FlatLayout,
    TupleMorphism,
    _coalesce_modes,
    _format_arrow,
    _Predicates,
    _unchecked,
    coalesce_m,
    complement_m,
    compose_morphisms,
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
        if flatten(self.domain) != self.fmap.domain:
            raise LayoutError(
                f"domain {self.domain} does not flatten to {self.fmap.domain}"
            )
        if flatten(self.codomain) != self.fmap.codomain:
            raise LayoutError(
                f"codomain {self.codomain} does not flatten to {self.fmap.codomain}"
            )
        _check_entries(flatten((self.domain, self.codomain)), 1, "entry", self)

    def is_standard_form(self) -> bool:
        return self.fmap.is_standard_form() and depth(self.codomain) <= 1

    def is_non_degenerate(self) -> bool:
        return self.fmap.is_non_degenerate()

    def realize(self) -> List[int]:
        return realize(self.fmap)

    def __str__(self) -> str:
        return _format_arrow(self.domain, self.fmap.amap, self.codomain)


@dataclass(frozen=True)
class Refinement:
    fine: Nested
    coarse: Nested

    def __post_init__(self) -> None:
        _check_ints(flatten((self.fine, self.coarse)), "entry", self)
        if not refines(self.fine, self.coarse):
            raise NotRefinementError(f"{self.fine} does not refine {self.coarse}")
        # refines() took each coarse entry as a checked product of fine ones
        _check_entries(flatten(self.fine), 1, "entry", self.fine)


@dataclass(frozen=True)
class MutualRefinement:
    t_ref: Refinement
    u_ref: Refinement

    def __post_init__(self) -> None:
        if not divides(self.t_ref.fine, self.u_ref.fine):
            raise LayoutError(
                f"{self.t_ref.fine} is not a flat prefix of {self.u_ref.fine}"
            )


def nest_morphism(domain: Nested, codomain: Nested, amap: Sequence[int]) -> NestMorphism:
    return NestMorphism(
        domain, codomain, TupleMorphism(flatten(domain), flatten(codomain), tuple(amap))
    )


def _derived(domain: Nested, codomain: Nested, amap: Sequence[int]) -> NestMorphism:
    """:func:`nest_morphism` without validation, for morphisms the engine
    derives from valid ones."""
    fmap = _unchecked(TupleMorphism, flatten(domain), flatten(codomain), tuple(amap))
    return _unchecked(NestMorphism, domain, codomain, fmap)


def compose_nest(f: NestMorphism, g: NestMorphism) -> NestMorphism:
    """g ∘ f (flattened codomain of f must equal flattened domain of g)."""
    return _unchecked(NestMorphism, f.domain, g.codomain, compose_morphisms(f.fmap, g.fmap))


def _as_tree(entries: Sequence[int]) -> Nested:
    """A single entry as a bare integer, any other number of them as a tuple."""
    return entries[0] if len(entries) == 1 else tuple(entries)


# -- refinement transport --------------------------------------------------


def _positions(parts: Sequence[Nested]) -> List[range]:
    """For each part, the 1-based positions of its entries in the flattening
    of all the parts in order."""
    out: List[range] = []
    for p in parts:
        start = out[-1].stop if out else 1
        out.append(range(start, start + length(p)))
    return out


def pullback(f: NestMorphism, tref: Refinement) -> Tuple[NestMorphism, Refinement]:
    """Refine the codomain along ``tref`` and split each domain entry into
    the flat block it now covers; the layout function is unchanged."""
    if tref.coarse != f.codomain:
        raise LayoutError(f"{tref.coarse} is not the codomain of {f}")
    rel = _relative_modes(tref.fine, f.codomain)
    pos = _positions(rel)
    parts: List[Nested] = []
    amap: List[int] = []
    for s, a in zip(f.fmap.domain, f.fmap.amap):
        parts.append(rel[a - 1] if a else s)
        amap.extend(pos[a - 1] if a else (0,))
    dom_fine = _substitute(f.domain, iter(parts))
    return _derived(dom_fine, tref.fine, amap), _unchecked(Refinement, dom_fine, f.domain)


def pushforward(f: NestMorphism, sref: Refinement) -> Tuple[NestMorphism, Refinement]:
    """Refine the domain along ``sref`` and replace each hit codomain entry
    by the refining sub-tree; the layout function is unchanged."""
    if sref.coarse != f.domain:
        raise LayoutError(f"{sref.coarse} is not the domain of {f}")
    rel = _relative_modes(sref.fine, f.domain)
    cod_parts: List[Nested] = list(f.fmap.codomain)
    for a, sub in zip(f.fmap.amap, rel):
        if a != 0:
            cod_parts[a - 1] = sub
    cod_fine = _substitute(f.codomain, iter(cod_parts))
    pos = _positions(cod_parts)
    amap: List[int] = []
    for a, sub in zip(f.fmap.amap, rel):
        amap.extend(pos[a - 1] if a else [0] * length(sub))
    return _derived(sref.fine, cod_fine, amap), _unchecked(Refinement, cod_fine, f.codomain)


# -- mutual refinement -----------------------------------------------------


def divides(fine_a: Nested, fine_b: Nested) -> bool:
    """Whether ``fine_a`` is a flat prefix of ``fine_b``: some concatenation
    ``fine_a ⋆ rest`` flattens to ``fine_b``'s flattening."""
    fa, fb = flatten(fine_a), flatten(fine_b)
    return fb[: len(fa)] == fa


def mutual_refinement(t: Nested, u: Nested) -> Optional[MutualRefinement]:
    """Refinements T' of ``t`` and U' of ``u`` with T' a flat prefix of U';
    None when the greedy entry-splitting strategy finds no such pair.

    Works through the flat entries with two pointers, splitting off the
    smaller current entry as a piece of both whenever it divides the larger.
    Raises :class:`LayoutError` for an entry below 1 and
    :class:`ArithmeticOverflowError` for one beyond the signed 64-bit range;
    the refinements returned are valid by construction.
    """
    x = list(flatten(t))
    y = list(flatten(u))
    _check_entries(x, 1, "entry", t)
    _check_entries(y, 1, "entry", u)
    x_pieces: List[List[int]] = [[] for _ in x]
    y_pieces: List[List[int]] = [[] for _ in y]
    i = j = 0
    while j < len(y):
        if i < len(x):
            piece = min(x[i], y[j])
            if max(x[i], y[j]) % piece != 0:
                return None
            x_pieces[i].append(piece)
            x[i] //= piece
            if x[i] == 1:
                i += 1
        else:
            piece = y[j]
        y_pieces[j].append(piece)
        y[j] //= piece
        if y[j] == 1:
            j += 1
    if i < len(x):
        return None
    return _unchecked(
        MutualRefinement,
        _unchecked(Refinement, _substitute(t, map(_as_tree, x_pieces)), t),
        _unchecked(Refinement, _substitute(u, map(_as_tree, y_pieces)), u),
    )


# -- composition -----------------------------------------------------------


def make_composable(
    f: NestMorphism, g: NestMorphism, mr: MutualRefinement
) -> Tuple[NestMorphism, NestMorphism]:
    """Transport ``f`` and ``g`` across a mutual refinement of
    (codomain(f), domain(g)) so that they become composable, without
    changing either layout function.

    The refined codomain of ``f`` is a flat prefix of the refined domain of
    ``g``, so ``f`` is extended by the corresponding inclusion.
    """
    if mr.t_ref.coarse != f.codomain or mr.u_ref.coarse != g.domain:
        raise LayoutError(
            "mutual refinement does not lie over (codomain(f), domain(g))"
        )
    f_fine, _ = pullback(f, mr.t_ref)
    g_fine, _ = pushforward(g, mr.u_ref)
    nt = length(mr.t_ref.fine)
    inclusion = _derived(mr.t_ref.fine, mr.u_ref.fine, range(1, nt + 1))
    return compose_nest(f_fine, inclusion), g_fine


# -- morphism-level operations ---------------------------------------------


def concat_nm(fs: Sequence[NestMorphism]) -> NestMorphism:
    """One morphism with one domain mode per operand; images must be
    disjoint and the codomains equal."""
    if not fs:
        raise LayoutError("cannot concatenate zero morphisms")
    for f in fs[1:]:
        if f.codomain != fs[0].codomain:
            raise LayoutError("concatenation requires a common codomain")
    return _unchecked(
        NestMorphism,
        tuple(f.domain for f in fs),
        fs[0].codomain,
        concat_morphisms([f.fmap for f in fs]),
    )


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

    bound = 1
    for s in a.shape[:-1]:
        bound *= s
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


@dataclass(frozen=True)
class Layout(_Predicates):
    shape: Nested
    stride: Nested

    def __post_init__(self) -> None:
        if not congruent(self.shape, self.stride):
            raise LayoutError(
                f"shape {self.shape} and stride {self.stride} are not congruent"
            )
        # range checks by the validating flat constructor, not by flat()
        FlatLayout(flatten(self.shape), flatten(self.stride))

    @staticmethod
    def of_flat(flat: FlatLayout) -> "Layout":
        """Wrap a flat layout: rank 0 becomes 1:0, rank 1 becomes depth 0."""
        return _unchecked(Layout, *_unflat(flat.shape, flat.stride))

    # -- attributes --------------------------------------------------------

    def flat(self) -> FlatLayout:
        return _unchecked(FlatLayout, flatten(self.shape), flatten(self.stride))

    def length(self) -> int:
        return length(self.shape)

    def rank(self) -> int:
        return rank(self.shape)

    def depth(self) -> int:
        return depth(self.shape)

    def complexity(self) -> int:
        return self.length() + self.depth()

    def size(self) -> int:
        return size(self.shape)

    def cosize(self) -> int:
        return self.flat().cosize()

    # -- evaluation --------------------------------------------------------

    def __call__(self, x: int) -> int:
        return self.flat()(x)

    def eval_coord(self, coord: Sequence[int]) -> int:
        return self.flat().eval_coord(coord)

    # -- predicates --------------------------------------------------------

    def is_tractable(self) -> bool:
        return self.flat().is_tractable()

    # -- coalescing --------------------------------------------------------

    def coalesce(self) -> "Layout":
        """The minimal-complexity layout with the same function."""
        return Layout.of_flat(self.flat().coalesce())

    def coalesce_relative(self, shape_bar: Nested) -> "Layout":
        """Coalesce each group of modes lying over an entry of ``shape_bar``
        (which the shape must refine), keeping the coarse grouping."""
        shapes = relative_modes(self.shape, shape_bar)
        strides = _relative_modes(self.stride, shape_bar)
        for i, (s, d) in enumerate(zip(shapes, strides)):
            shapes[i], strides[i] = _unflat(*_coalesce_modes(flatten(s), flatten(d)))
        shape = _substitute(shape_bar, iter(shapes))
        return _unchecked(Layout, shape, _substitute(shape_bar, iter(strides)))

    # -- complement --------------------------------------------------------

    def complement(self, n: Optional[int] = None) -> "Layout":
        return Layout.of_flat(self.flat().complement(n))

    # -- algebra (delegating to the morphism engine) -----------------------

    def compose(self, other: "Layout") -> "Layout":
        """The layout of ``Φ_other ∘ Φ_self``: the weak composite coalesced
        relative to the shape of ``self``."""
        return compose_tractable(self, other).coalesce_relative(self.shape)

    def logical_divide(self, tiler: "Layout") -> "Layout":
        return concat_layouts(
            [tiler, tiler.complement(self.size())]
        ).compose(self)

    def logical_product(self, other: "Layout") -> "Layout":
        comp = self.complement(self.size() * other.cosize())
        return concat_layouts([self, other.compose(comp)])

    def __str__(self) -> str:
        return f"{format_nested(self.shape)}:{format_nested(self.stride)}"


def _unflat(shape: Tuple[int, ...], stride: Tuple[int, ...]) -> Tuple[Nested, Nested]:
    """Shape and stride of :meth:`Layout.of_flat`."""
    return (_as_tree(shape), _as_tree(stride)) if shape else (1, 0)


def concat_layouts(layouts: Sequence[Layout]) -> Layout:
    """(A, B, ...) as one layout with one mode per operand."""
    return _unchecked(
        Layout, tuple(l.shape for l in layouts), tuple(l.stride for l in layouts)
    )


def substitute_profile(layout: Layout, prof) -> Layout:
    """Re-nest the entries of ``layout`` under a new profile of the same
    length."""
    flat = layout.flat()
    return Layout(substitute(flat.shape, prof), substitute(flat.stride, prof))


def column_major_layout(shape: Nested) -> Layout:
    """The compact layout with the given shape, first entry fastest."""
    stride = column_major(flatten(shape)).stride
    return _unchecked(Layout, shape, _substitute(shape, iter(stride)))


# -- conversion to and from nest morphisms ----------------------------------


def layout_of_nested(f: NestMorphism) -> Layout:
    """The layout encoded by ``f``, nested like its domain."""
    flat = layout_of(f.fmap)
    return _unchecked(Layout, f.domain, _substitute(f.domain, iter(flat.stride)))


def standard_representation_nested(layout: Layout) -> NestMorphism:
    """Standard representation with the layout's shape tree as domain and a
    flat codomain."""
    fmap = standard_representation(layout.flat())
    return _unchecked(NestMorphism, layout.shape, fmap.codomain, fmap)


def compose_tractable(a: Layout, b: Layout) -> Layout:
    """The weak composite: a layout with function Φ_b ∘ Φ_a whose shape
    refines shape(a), before any coalescing."""
    if a.cosize() > b.size():
        raise NotComposableError(
            f"cosize {a.cosize()} of the first layout exceeds size {b.size()} "
            f"of the second"
        )
    f = standard_representation_nested(a)
    g = standard_representation_nested(b.coalesce())

    mr = mutual_refinement(tuple(f.fmap.codomain), g.domain)
    if mr is None:
        raise NotComposableError(
            f"no mutual refinement of {f.fmap.codomain} and {g.domain}"
        )
    f_fine, g_fine = make_composable(f, g, mr)
    return layout_of_nested(compose_nest(f_fine, g_fine))
