"""Tensor layout algebra: nested shape/stride layouts, their operation
suite (coalesce, complement, composition, logical division and product),
the tuple-morphism engine those operations run on, and a brute-force
oracle for verifying every result by exhaustive evaluation."""

from .errors import (
    ArithmeticOverflowError,
    LayoutError,
    NotationError,
    NotComplementableError,
    NotComposableError,
    NotRefinementError,
    NotTractableError,
    OracleCapError,
)
from .shapes import (
    STAR,
    Nested,
    Profile,
    colex,
    colex_inv,
    congruent,
    depth,
    flatten,
    format_nested,
    length,
    prefix_products,
    profile,
    rank,
    refines,
    relative_modes,
    size,
    substitute,
)
from .tuplecat import (
    FlatLayout,
    TupleMorphism,
    coalesce_m,
    column_major,
    complement_m,
    compose_morphisms,
    concat_flat,
    concat_morphisms,
    identity,
    layout_of,
    realize,
    sort_m,
    squeeze_m,
    standard_representation,
    sum_morphisms,
)
from .nestcat import (
    Layout,
    MutualRefinement,
    NestMorphism,
    Refinement,
    coalesce_nm,
    column_major_layout,
    complement_nm,
    compose_nest,
    concat_layouts,
    concat_nm,
    divides,
    is_admissible_for_composition,
    layout_of_nested,
    logical_divide_m,
    logical_product_m,
    make_composable,
    mutual_refinement,
    nest_morphism,
    pullback,
    pushforward,
    standard_representation_nested,
    substitute_profile,
)
from .oracle import (
    FunctionTable,
    check_complement,
    check_compose,
    exhaustive_complement_search,
    functions_equal,
    table_of,
)
from .notation import (
    format_layout,
    format_morphism,
    parse_layout,
    parse_morphism,
    parse_nested,
)

__version__ = "0.1.0"
