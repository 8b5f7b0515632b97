"""Staged replays of the layout operations, with a span around each stage.

``staged_compose`` calls the same public functions, in the same order, as
``nestcat.compose_layouts`` (through ``compose_tractable``), so the traced
run can split one composition into its stages.  Divide and product are
replayed through ``concat_layouts``, ``complement`` and the staged compose,
as ``Layout.logical_divide`` and ``Layout.logical_product`` define them.
The benchmark checks that every staged result equals the direct method call.
"""

from __future__ import annotations

from layoutkit import (
    Layout,
    NotComposableError,
    compose_nest,
    concat_layouts,
    flatten,
    layout_of_nested,
    make_composable,
    mutual_refinement,
    standard_representation_nested,
)
from layoutkit.notation import format_layout, parse_layout, parse_nested

from spans import Tracer

#: stage span names of one composition, in pipeline order
COMPOSE_STAGES = (
    "layout.cosize",
    "layout.coalesce",
    "nestcat.standard_representation_nested",
    "nestcat.mutual_refinement",
    "nestcat.make_composable",
    "nestcat.composite",
    "layout.coalesce_relative",
)


def _composite(f_fine, g_fine) -> Layout:
    return layout_of_nested(compose_nest(f_fine, g_fine))


def staged_compose(t: Tracer, a: Layout, b: Layout) -> Layout:
    cosize = t.call("layout.cosize", a.cosize)
    if cosize > b.size():
        raise NotComposableError(
            f"cosize {cosize} of the first layout exceeds size {b.size()} of the second"
        )
    bc = t.call("layout.coalesce", b.coalesce)
    f = t.call("nestcat.standard_representation_nested", standard_representation_nested, a)
    g = t.call("nestcat.standard_representation_nested", standard_representation_nested, bc)
    mr = t.call("nestcat.mutual_refinement", mutual_refinement, tuple(f.fmap.codomain), g.domain)
    t.add("nestcat.mutual_refinement.found", mr is not None)
    if mr is None:
        raise NotComposableError(f"no mutual refinement of {f.fmap.codomain} and {g.domain}")
    t.add("nestcat.refined_entries", len(flatten(mr.u_ref.fine)))
    f_fine, g_fine = t.call("nestcat.make_composable", make_composable, f, g, mr)
    weak = t.call("nestcat.composite", _composite, f_fine, g_fine)
    return t.call("layout.coalesce_relative", weak.coalesce_relative, a.shape)


def staged_divide(t: Tracer, a: Layout, tiler: Layout) -> Layout:
    comp = t.call("layout.complement", tiler.complement, a.size())
    tiled = t.call("layout.concat", concat_layouts, [tiler, comp])
    return t.call("bench.staged_compose", staged_compose, t, tiled, a)


def staged_product(t: Tracer, a: Layout, b: Layout) -> Layout:
    comp = t.call("layout.complement", a.complement, a.size() * b.cosize())
    rep = t.call("bench.staged_compose", staged_compose, t, b, comp)
    return t.call("layout.concat", concat_layouts, [a, rep])


# -- CLI replay --------------------------------------------------------------

#: verbs the replay covers: each is parse -> one Layout operation -> format
REPLAY_VERBS = ("compose", "divide", "product", "coalesce", "coalesce-rel", "complement")


def replayable(argv) -> bool:
    return (
        len(argv) >= 2
        and argv[0] in REPLAY_VERBS
        and not any(a.startswith("--") or "--(" in a for a in argv)
    )


def replay_cli(t: Tracer, argv) -> str:
    """What ``layoutkit <argv>`` prints, computed as parse -> operation ->
    format without the command-line front end."""
    verb, args = argv[0], argv[1:]
    a = t.call("notation.parse", parse_layout, args[0])
    if verb == "coalesce":
        out = t.call("layout.coalesce", a.coalesce)
    elif verb == "coalesce-rel":
        out = t.call("layout.coalesce_relative", a.coalesce_relative, t.call("notation.parse", parse_nested, args[1]))
    elif verb == "complement":
        n = int(args[1]) if len(args) > 1 else None
        out = t.call("layout.complement", a.complement, n)
    else:
        b = t.call("notation.parse", parse_layout, args[1])
        method = {"compose": a.compose, "divide": a.logical_divide, "product": a.logical_product}[verb]
        out = t.call("layout." + {"compose": "compose", "divide": "logical_divide", "product": "logical_product"}[verb], method, b)
    return t.call("notation.format", format_layout, out) + "\n"
