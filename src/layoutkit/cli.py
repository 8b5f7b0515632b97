"""Command-line front end.

Exit codes: 0 success, 1 domain error (with a one-line ``code: reason``
message on stderr), 2 malformed input text.  ``--json`` switches the output
from canonical notation to structured JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .errors import LayoutError, NotationError
from .layout import Layout, layout_of_nested, standard_representation_nested
from .nestcat import (
    NestMorphism,
    coalesce_nm,
    complement_nm,
    compose_nest,
    logical_divide_m,
    logical_product_m,
    mutual_refinement,
    nest_morphism,
)
from .notation import (
    _int,
    format_layout,
    format_morphism,
    format_nested,
    nested_to_json,
    parse_layout,
    parse_morphism,
    parse_nested,
)
from .oracle import check_complement, check_compose, table_of


def _is_morphism_text(text: str) -> bool:
    return "--(" in text


def _emit_layout(l: Layout, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "shape": nested_to_json(l.shape),
                    "stride": nested_to_json(l.stride),
                }
            )
        )
    else:
        print(format_layout(l))


def _emit_morphism(f: NestMorphism, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "domain": nested_to_json(f.domain),
                    "codomain": nested_to_json(f.codomain),
                    "map": list(f.fmap.amap),
                }
            )
        )
    else:
        print(format_morphism(f))


def _morphism_arg(args: argparse.Namespace) -> NestMorphism:
    """A single morphism argument: either arrow text, or two tuples plus
    ``--map``."""
    if args.map is not None:
        if len(args.args) != 2:
            raise NotationError("--map needs exactly two tuple arguments")
        amap = tuple(_int(tok) for tok in args.map.split(",")) if args.map else ()
        return nest_morphism(
            parse_nested(args.args[0]), parse_nested(args.args[1]), amap
        )
    if len(args.args) != 1:
        raise NotationError("expected exactly one morphism argument")
    return parse_morphism(args.args[0])


def _render_grid(l: Layout, flatten_to: Optional[int]) -> List[List[int]]:
    flat = l.flat()
    if flat.rank > 2 and flatten_to is None:
        raise LayoutError(f"rank {flat.rank} is not renderable; pass --flatten-to 2")
    values = table_of(flat).values
    if flat.rank <= 1 or flatten_to == 1:
        return [[v] for v in values]
    # rows = first mode's coordinate, columns = the rest (colex order)
    nrows = flat.shape[0]
    return [list(values[i::nrows]) for i in range(nrows)]


def _format_grid(cells: List[List[int]], tikz: bool) -> str:
    nrows, ncols = len(cells), len(cells[0])
    if tikz:
        lines = ["\\begin{tikzpicture}", f"\\draw (0,0) grid ({ncols},{nrows});"]
        for i, row in enumerate(cells):
            for j, v in enumerate(row):
                lines.append(
                    f"\\node at ({j}.5,{nrows - 1 - i}.5) {{{v}}};"
                )
        lines.append("\\end{tikzpicture}")
        return "\n".join(lines)
    width = max(len(str(v)) for row in cells for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in cells)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layoutkit",
        description="Layout algebra calculator: coalesce, complement, "
        "compose, divide, product, and the morphism engine behind them.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name: str, nargs: str = "+", **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("args", nargs=nargs)
        return p

    verb("coalesce", help="coalesce a layout or a morphism").add_argument(
        "--map", default=None
    )
    verb("coalesce-rel", help="coalesce a layout relative to a shape")
    verb("complement", help="complement of a layout (optionally sized) or morphism").add_argument(
        "--map", default=None
    )
    verb("compose", help="compose: second argument applied after the first")
    verb("divide", help="logical division of the first argument by the second")
    verb("product", help="logical product of the two arguments")
    verb("tractable", help="whether a layout is tractable")
    verb("morphism", help="standard representation of a tractable layout")
    verb("layout-of", help="the layout encoded by a morphism").add_argument(
        "--map", default=None
    )
    verb("mutual-refine", help="mutual refinement of two nested tuples")
    p = verb("render", help="grid of layout function values")
    p.add_argument("--flatten-to", type=int, choices=(1, 2), default=None)
    p.add_argument("--tikz", action="store_true")
    verb("eval", help="evaluate a layout at a linear index")
    verb("check", help="re-verify an engine result against the oracle")
    return parser


#: the operands each verb (without ``--map``) and each ``check`` target
#: takes: (fewest, most, description)
_ARITY = {
    "coalesce": (1, 1, "a layout or a morphism"),
    "coalesce-rel": (2, 2, "a layout and a shape"),
    "complement": (1, 2, "a layout and an optional size, or a morphism"),
    "compose": (2, 2, "two layouts or two morphisms"),
    "divide": (2, 2, "two layouts or two morphisms"),
    "product": (2, 2, "two layouts or two morphisms"),
    "tractable": (1, 1, "one layout"),
    "morphism": (1, 1, "one layout"),
    "layout-of": (1, 1, "a morphism"),
    "mutual-refine": (2, 2, "two tuples"),
    "render": (1, 1, "one layout"),
    "eval": (2, 2, "a layout and an index"),
    "check compose": (2, 2, "two layouts"),
    "check complement": (1, 2, "a layout and an optional size"),
    "check coalesce": (1, 1, "one layout"),
}


def _check_arity(name: str, operands: Sequence[str]) -> None:
    low, high, wanted = _ARITY[name]
    if not low <= len(operands) <= high:
        raise NotationError(f"{name} takes {wanted}, got {len(operands)}")


#: the layout operation and the morphism operation of each two-operand verb
_BINARY = {
    "compose": (Layout.compose, compose_nest),
    "divide": (Layout.logical_divide, logical_divide_m),
    "product": (Layout.logical_product, logical_product_m),
}


def _run(args: argparse.Namespace) -> int:
    verb = args.verb
    as_json = args.json
    if verb in _ARITY and getattr(args, "map", None) is None:
        _check_arity(verb, args.args)

    if verb == "coalesce":
        if getattr(args, "map", None) is not None or _is_morphism_text(args.args[0]):
            _emit_morphism(coalesce_nm(_morphism_arg(args)), as_json)
        else:
            _emit_layout(parse_layout(args.args[0]).coalesce(), as_json)
    elif verb == "coalesce-rel":
        text, shape_text = args.args
        _emit_layout(
            parse_layout(text).coalesce_relative(parse_nested(shape_text)), as_json
        )
    elif verb == "complement":
        if getattr(args, "map", None) is not None or _is_morphism_text(args.args[0]):
            _emit_morphism(complement_nm(_morphism_arg(args)), as_json)
        else:
            n = _int(args.args[1]) if len(args.args) > 1 else None
            _emit_layout(parse_layout(args.args[0]).complement(n), as_json)
    elif verb in _BINARY:
        a_text, b_text = args.args
        on_layouts, on_morphisms = _BINARY[verb]
        if _is_morphism_text(a_text):
            f, g = parse_morphism(a_text), parse_morphism(b_text)
            _emit_morphism(on_morphisms(f, g), as_json)
        else:
            _emit_layout(on_layouts(parse_layout(a_text), parse_layout(b_text)), as_json)
    elif verb == "tractable":
        result = parse_layout(args.args[0]).is_tractable()
        print(json.dumps({"tractable": result}) if as_json else str(result).lower())
    elif verb == "morphism":
        _emit_morphism(standard_representation_nested(parse_layout(args.args[0])), as_json)
    elif verb == "layout-of":
        _emit_layout(layout_of_nested(_morphism_arg(args)), as_json)
    elif verb == "mutual-refine":
        t_text, u_text = args.args
        mr = mutual_refinement(parse_nested(t_text), parse_nested(u_text))
        if mr is None:
            print("not-composable: no mutual refinement", file=sys.stderr)
            return 1
        if as_json:
            print(
                json.dumps(
                    {
                        "first": nested_to_json(mr.t_ref.fine),
                        "second": nested_to_json(mr.u_ref.fine),
                    }
                )
            )
        else:
            print(format_nested(mr.t_ref.fine))
            print(format_nested(mr.u_ref.fine))
    elif verb == "render":
        cells = _render_grid(parse_layout(args.args[0]), args.flatten_to)
        if as_json:
            print(
                json.dumps(
                    {"rows": len(cells), "cols": len(cells[0]), "cells": cells}
                )
            )
        else:
            print(_format_grid(cells, args.tikz))
    elif verb == "eval":
        text, x_text = args.args
        value = parse_layout(text)(_int(x_text))
        print(json.dumps({"value": value}) if as_json else str(value))
    elif verb == "check":
        ok = _check(args.args)
        if as_json:
            print(json.dumps({"ok": ok}))
        elif ok:
            print("ok")
        if not ok:
            print("check-failed: oracle disagrees with the engine", file=sys.stderr)
            return 1
    return 0


def _check(argv: Sequence[str]) -> bool:
    what, rest = argv[0], argv[1:]
    if f"check {what}" not in _ARITY:
        raise NotationError(f"unknown check target {what!r}")
    _check_arity(f"check {what}", rest)
    if what == "compose":
        return check_compose(parse_layout(rest[0]), parse_layout(rest[1]))
    if what == "complement":
        n = _int(rest[1]) if len(rest) > 1 else None
        return check_complement(parse_layout(rest[0]), n=n)
    a = parse_layout(rest[0])
    return table_of(a.coalesce()) == table_of(a)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse reports usage problems with status 2 already
        return int(exc.code or 0)
    try:
        return _run(args)
    except NotationError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 2
    except LayoutError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("parse-error: nesting too deep", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
