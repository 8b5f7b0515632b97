"""Nested layouts: congruent shape and stride trees.

A :class:`Layout` pairs a nested shape tuple with a congruent nested stride
tuple.  Its function ignores the nesting — it is the function of the
flattened layout — but the nesting determines how operations such as
composition, division, and product group their results.  Composition
reaches the morphism engine through the conversions at the end of this
module.  Only the public constructor validates: engine-built layouts skip it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import LayoutError, NotComposableError
from .flat import FlatLayout, _coalesce_modes, _unchecked
from .nestcat import (
    NestMorphism,
    compose_nest,
    make_composable,
    mutual_refinement,
)
from .shapes import (
    Nested,
    _relative_modes,
    congruent,
    depth,
    flatten,
    format_nested,
    length,
    prefix_products,
    profile,
    rank,
    relative_modes,
    size,
    substitute,
)
from .tuplecat import layout_of, standard_representation


@dataclass(frozen=True)
class Layout:
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

    def is_compact(self) -> bool:
        return self.flat().is_compact()

    def is_complementable(self) -> bool:
        return self.flat().is_complementable()

    def is_n_complementable(self, n: int) -> bool:
        return self.flat().is_n_complementable(n)

    def is_coalesced(self) -> bool:
        """Whether :meth:`coalesce` leaves the layout unchanged: 1:0, a depth-0
        layout with shape > 1, or a flat tuple of rank > 1 that admits no merging."""
        if isinstance(self.shape, int):
            return (self.shape, self.stride) == (1, 0) or self.shape > 1
        flat = self.flat()  # equal to the shape only for a tuple of integers
        return flat.shape == self.shape and flat.rank > 1 and flat.is_coalesced()

    # -- coalescing --------------------------------------------------------

    def coalesce(self) -> "Layout":
        """The minimal-complexity layout with the same function."""
        return Layout.of_flat(self.flat().coalesce())

    def coalesce_relative(self, shape_bar: Nested) -> "Layout":
        """Coalesce each group of modes lying over an entry of ``shape_bar``
        (which the shape must refine), keeping the coarse grouping."""
        shapes = relative_modes(self.shape, shape_bar)
        strides: List[Nested] = []
        _relative_modes(self.stride, shape_bar, strides)
        for i, (s, d) in enumerate(zip(shapes, strides)):
            shapes[i], strides[i] = _unflat(*_coalesce_modes(flatten(s), flatten(d)))
        prof = profile(shape_bar)
        return _unchecked(Layout, substitute(shapes, prof), substitute(strides, prof))

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
    if len(shape) > 1:
        return shape, stride
    return (shape[0], stride[0]) if shape else (1, 0)


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
    entries = flatten(shape)
    return Layout(shape, substitute(prefix_products(entries)[:-1], profile(shape)))


# -- conversion to and from nest morphisms ----------------------------------


def layout_of_nested(f: NestMorphism) -> Layout:
    """The layout encoded by ``f``, nested like its domain."""
    flat = layout_of(f.fmap)
    return _unchecked(Layout, f.domain, substitute(flat.stride, profile(f.domain)))


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
