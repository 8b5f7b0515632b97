"""The layer probe of the traced run: each module's public functions,
called one span each, on the workload's own inputs.

Per-layer ``_us`` metrics are medians over these spans, so every workload
reports every layer, measured on the layouts that workload runs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from layoutkit import (
    FlatLayout,
    Layout,
    LayoutError,
    NotationError,
    check_complement,
    check_compose,
    exhaustive_complement_search,
    flatten,
    layout_of,
    profile,
    relative_modes,
    size,
    standard_representation,
    table_of,
)
from layoutkit.notation import format_layout, parse_layout

import clicases
from spans import Tracer, median_us
from stages import replay_cli, replayable, staged_compose, staged_divide, staged_product

#: tabulating probes skip layouts with more points than this
TABLE_LIMIT = 1 << 16
#: check_compose probes skip compositions with more points than this
COMPOSE_CHECK_LIMIT = 1 << 12


def _layouts_and_pairs(item) -> Tuple[List[Layout], List[Tuple[Layout, Layout]], Optional[str]]:
    """The layouts an item touches, its (a, b) operand pair when it composes,
    and which staged replay applies."""
    if item.kind == "cli":
        data = item.expect.data
        layouts: List[Layout] = []
        for text in item.args:
            try:
                layouts.append(parse_layout(text))
            except (NotationError, LayoutError, ValueError):
                pass
        check = item.expect.check
        if check in ("compose", "logical_divide", "logical_product"):
            return layouts, [tuple(data)], check
        return layouts, [], None
    layouts = [x if isinstance(x, Layout) else Layout.of_flat(x) for x in item.args if isinstance(x, (Layout, FlatLayout))]
    if item.kind in ("compose", "logical_divide", "logical_product"):
        return layouts, [tuple(item.args)], item.kind
    if item.kind == "check_compose":
        return layouts, [tuple(item.args[:2])], "compose"
    return layouts, [], None


def _bar(shape):
    """A coarsening of ``shape``: each top-level mode replaced by its size."""
    return shape if isinstance(shape, int) else tuple(size(c) for c in shape)


def probe_layout(t: Tracer, l: Layout) -> None:
    t.call("layout.construct", Layout, l.shape, l.stride)
    t.call("shapes.flatten", flatten, l.shape)
    t.call("shapes.profile", profile, l.shape)
    bar = _bar(l.shape)
    t.call("shapes.relative_modes", relative_modes, l.shape, bar)
    t.call("layout.coalesce_relative", l.coalesce_relative, bar)
    t.call("layout.coalesce", l.coalesce)
    flat = l.flat()
    t.call("flat.coalesce", flat.coalesce)
    if t.call("flat.is_tractable", flat.is_tractable):
        f = t.call("tuplecat.standard_representation", standard_representation, flat)
        t.add("tuplecat.codomain_entries", len(f.codomain))
        t.call("tuplecat.layout_of", layout_of, f)
    if flat.is_complementable():
        t.call("flat.complement", flat.complement)
        comp = t.call("layout.complement", l.complement)
        if l.size() * comp.size() <= TABLE_LIMIT:
            t.call("oracle.check_complement", check_complement, l, comp)
        srt = flat.squeeze().sort()
        if srt.rank:
            lead = FlatLayout(srt.shape[:1], srt.stride[:1])
            n = 2 * srt.shape[0] * srt.stride[0]
            if n <= 64:
                t.call("oracle.exhaustive_complement_search", exhaustive_complement_search, lead, n)
    # divide by a tile of the first coalesced mode and take the product with
    # 2:1, so divide and product run on every workload's own layouts
    first = flatten(l.coalesce().shape)[0]
    tile = next((p for p in range(2, first + 1) if first % p == 0), 1)
    if tile > 1:
        probe_pair(t, "logical_divide", l, Layout(tile, 1))
    if flat.is_complementable():
        probe_pair(t, "logical_product", l, Layout(2, 1))
    text = t.call("notation.format", format_layout, l)
    t.call("notation.parse", parse_layout, text)
    if l.size() <= TABLE_LIMIT:
        t.call("oracle.table_of", table_of, l)
        t.add("oracle.points", l.size())


_STAGED = {"compose": staged_compose, "logical_divide": staged_divide, "logical_product": staged_product}


def probe_pair(t: Tracer, kind: str, a: Layout, b: Layout) -> Optional[Layout]:
    direct = getattr(a, kind)
    try:
        want = t.call("layout." + kind, direct, b)
    except LayoutError:
        want = None
    try:
        got = t.call("bench.staged_" + kind, _STAGED[kind], t, a, b)
    except LayoutError:
        got = None
    if got != want:
        raise AssertionError(f"staged {kind} of {a} and {b} gave {got}, Layout.{kind} gave {want}")
    if kind == "compose" and want is not None and a.size() <= COMPOSE_CHECK_LIMIT:
        t.call("oracle.check_compose", check_compose, a, b, want)
    return want


def probe_cli(t: Tracer, argv) -> None:
    if not replayable(argv):
        return
    code, out, _ = t.call("cli.main", clicases.run_main, argv)
    if code != 0:
        return
    replay = t.call("cli.replay", replay_cli, t, argv)
    if replay != out:
        raise AssertionError(f"replay of {argv} printed {replay!r}, main printed {out!r}")


def probe(t: Tracer, items, count: int) -> int:
    """Probe the first ``count`` items, then further items until every
    required span has samples; returns the number of items probed.  Which
    items are probed depends on the seed alone, not on how fast they run."""
    n = 0
    for item in items:
        if n >= count and covered(t):
            break
        layouts, pairs, kind = _layouts_and_pairs(item)
        for l in layouts:
            probe_layout(t, l)
        for a, b in pairs:
            probe_pair(t, kind, a, b)
        if item.kind == "cli":
            probe_cli(t, item.args)
        elif layouts:
            probe_cli(t, ("coalesce", format_layout(layouts[0])))
        n += 1
    return n


#: span names every probe must have sampled
REQUIRED = (
    "layout.construct", "layout.coalesce", "layout.complement", "layout.coalesce_relative",
    "layout.compose", "flat.is_tractable", "flat.complement", "flat.coalesce",
    "shapes.flatten", "shapes.profile", "shapes.relative_modes",
    "tuplecat.standard_representation", "tuplecat.layout_of",
    "nestcat.standard_representation_nested", "nestcat.mutual_refinement",
    "nestcat.make_composable", "nestcat.composite",
    "notation.parse", "notation.format", "cli.main", "cli.replay",
    "oracle.table_of", "oracle.check_compose", "oracle.check_complement",
    "oracle.exhaustive_complement_search", "layout.logical_divide", "layout.logical_product",
)


def covered(t: Tracer, min_calls: int = 5) -> bool:
    seen: Dict[str, int] = {}
    for s in t.spans:
        if s is not None and s.ok:
            seen[s.name] = seen.get(s.name, 0) + 1
    return all(seen.get(name, 0) >= min_calls for name in REQUIRED)


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """Per-layer metrics from the probe's spans and counts."""
    out: Dict[str, float] = {}
    for name in REQUIRED:
        if name.startswith("cli."):
            continue
        m = median_us(t.spans, name)
        if m is not None:
            out[name + "_us"] = m
    main, replay = median_us(t.spans, "cli.main"), median_us(t.spans, "cli.replay")
    if main is not None and replay is not None:
        out["cli.overhead_us"] = main - replay
    table_ns = sum(s.end - s.start for s in t.spans if s.name == "oracle.table_of" and s.ok)
    if table_ns:
        out["oracle.points_per_s"] = t.counts["oracle.points"][0] / (table_ns / 1e9)
    if "oracle.exhaustive_complement_search_us" in out:
        out["oracle.complement_search_us"] = out.pop("oracle.exhaustive_complement_search_us")
    for name in ("tuplecat.codomain_entries", "nestcat.refined_entries"):
        total, n = t.counts[name]
        if n:
            out[name] = total / n
    found, tried = t.counts["nestcat.mutual_refinement.found"]
    if tried:
        out["nestcat.mutual_refinement_hit_ratio"] = found / tried
    return out
