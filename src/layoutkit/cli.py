"""Command-line front end.

Exit codes: 0 success, 1 domain error (a one-line ``code: reason`` message
on stderr), 2 malformed text, nested beyond ``notation.MAX_DEPTH`` too.
``--json`` writes structured JSON, each tree as its canonical text is.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, NamedTuple, Optional, Sequence

from .errors import LayoutError, NotComposableError, NotationError
from .nestcat import (
    Layout,
    NestMorphism,
    coalesce_nm,
    complement_nm,
    compose_nest,
    layout_of_nested,
    logical_divide_m,
    logical_product_m,
    mutual_refinement,
    nest_morphism,
    standard_representation_nested,
)
from .notation import _parse, _Scanner, format_nested, parse_layout, parse_morphism, parse_nested
from .oracle import check_complement, check_compose, functions_equal, table_of


class _Verb(NamedTuple):
    help: Optional[str]  # None for a check target, which is no subparser
    operands: Optional[str]  # what it takes; None for check: see its target
    low: int = 1  # the fewest and the most operands without --map
    high: int = 1
    map: bool = False  # also takes a morphism as two tuples plus --map


#: every verb, in the order ``--help`` lists them, then every check target
_VERBS = {
    "coalesce": _Verb(
        "coalesce a layout or a morphism", "a layout or a morphism", map=True
    ),
    "coalesce-rel": _Verb(
        "coalesce a layout relative to a shape", "a layout and a shape", 2, 2
    ),
    "complement": _Verb(
        "complement of a layout (optionally sized) or morphism",
        "a layout and an optional size, or a morphism", 1, 2, map=True,
    ),
    "compose": _Verb(
        "compose: second argument applied after the first",
        "two layouts or two morphisms", 2, 2,
    ),
    "divide": _Verb(
        "logical division of the first argument by the second",
        "two layouts or two morphisms", 2, 2,
    ),
    "product": _Verb(
        "logical product of the two arguments", "two layouts or two morphisms", 2, 2
    ),
    "tractable": _Verb("whether a layout is tractable", "one layout"),
    "morphism": _Verb("standard representation of a tractable layout", "one layout"),
    "layout-of": _Verb("the layout encoded by a morphism", "a morphism", map=True),
    "mutual-refine": _Verb("mutual refinement of two nested tuples", "two tuples", 2, 2),
    "render": _Verb("grid of layout function values", "one layout"),
    "eval": _Verb("evaluate a layout at a linear index", "a layout and an index", 2, 2),
    "check": _Verb("re-verify an engine result against the oracle", None),
    "check compose": _Verb(None, "two layouts", 2, 2),
    "check complement": _Verb(None, "a layout and an optional size", 1, 2),
    "check coalesce": _Verb(None, "one layout"),
}

#: the layout operation and the morphism operation of each algebra verb;
#: arrow text or ``--map`` selects the morphism side
_ALGEBRA = {
    "coalesce": (Layout.coalesce, coalesce_nm),
    "complement": (Layout.complement, complement_nm),
    "compose": (Layout.compose, compose_nest),
    "divide": (Layout.logical_divide, logical_divide_m),
    "product": (Layout.logical_product, logical_product_m),
}

_JSON = str.maketrans({"(": "[", ")": "]", ",": ", "})  #: canonical text to a JSON array


def _emit(as_json: bool, result: object, **fields: object) -> None:
    """Print a result as text, or under ``--json`` as one JSON object: a
    layout's shape and stride, a morphism's domain, codomain and map, or else
    the given fields.  A tree is written as a JSON array on the text walk's stack."""
    if not as_json:
        print(result)
        return
    if isinstance(result, Layout):
        fields = {"shape": result.shape, "stride": result.stride}
    elif isinstance(result, NestMorphism):
        fields = {
            "domain": result.domain,
            "codomain": result.codomain,
            "map": result.fmap.amap,
        }
    values = (format_nested(v).translate(_JSON) if isinstance(v, tuple) else json.dumps(v)
              for v in fields.values())
    print("{" + ", ".join(f'"{k}": {v}' for k, v in zip(fields, values)) + "}")


def _morphisms(
    verb: str, operands: Sequence[str], amap: Optional[str]
) -> List[NestMorphism]:
    """The morphism operands: each in arrow text, or one as two tuples plus
    ``--map``."""
    if amap is not None:
        if len(operands) != 2:
            raise NotationError("--map needs exactly two tuple arguments")
        entries = _parse(amap, _Scanner.map) if amap else ()
        domain, codomain = parse_nested(operands[0]), parse_nested(operands[1])
        return [nest_morphism(domain, codomain, entries)]
    if verb == "complement" and len(operands) > 1:  # a morphism takes no size
        raise NotationError("expected exactly one morphism argument")
    return [parse_morphism(text) for text in operands]


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
    for name, row in _VERBS.items():
        if row.help is None:
            continue
        p = sub.add_parser(name, help=row.help)
        p.add_argument("args", nargs="+")
        if row.map:
            p.add_argument("--map", default=None)
        if name == "render":
            p.add_argument("--flatten-to", type=int, choices=(1, 2), default=None)
            p.add_argument("--tikz", action="store_true")
    return parser


def _run(args: argparse.Namespace) -> int:
    verb, name, operands = args.verb, args.verb, args.args
    as_json, amap = args.json, getattr(args, "map", None)
    if verb == "check":
        name, operands = f"check {operands[0]}", operands[1:]
        if name not in _VERBS:
            raise NotationError(f"unknown check target {args.args[0]!r}")
    row = _VERBS[name]
    if amap is None and not row.low <= len(operands) <= row.high:
        raise NotationError(f"{name} takes {row.operands}, got {len(operands)}")

    if verb in _ALGEBRA:
        on_layouts, on_morphisms = _ALGEBRA[verb]
        if amap is not None or "--(" in operands[0]:
            _emit(as_json, on_morphisms(*_morphisms(verb, operands, amap)))
        elif verb == "complement":  # the second operand is an optional size
            n = _parse(operands[1], _Scanner.operand) if len(operands) > 1 else None
            _emit(as_json, on_layouts(parse_layout(operands[0]), n))
        else:
            _emit(as_json, on_layouts(*[parse_layout(text) for text in operands]))
    elif verb == "coalesce-rel":
        a = parse_layout(operands[0])
        _emit(as_json, a.coalesce_relative(parse_nested(operands[1])))
    elif verb == "tractable":
        result = parse_layout(operands[0]).is_tractable()
        _emit(as_json, str(result).lower(), tractable=result)
    elif verb == "morphism":
        _emit(as_json, standard_representation_nested(parse_layout(operands[0])))
    elif verb == "layout-of":
        _emit(as_json, layout_of_nested(*_morphisms(verb, operands, amap)))
    elif verb == "mutual-refine":
        mr = mutual_refinement(parse_nested(operands[0]), parse_nested(operands[1]))
        if mr is None:
            raise NotComposableError("no mutual refinement")
        first, second = mr.t_ref.fine, mr.u_ref.fine
        text = format_nested(first) + "\n" + format_nested(second)
        _emit(as_json, text, first=first, second=second)
    elif verb == "render":
        cells = _render_grid(parse_layout(operands[0]), args.flatten_to)
        text = None if as_json else _format_grid(cells, args.tikz)
        _emit(as_json, text, rows=len(cells), cols=len(cells[0]), cells=cells)
    elif verb == "eval":
        value = parse_layout(operands[0])(_parse(operands[1], _Scanner.operand))
        _emit(as_json, value, value=value)
    elif verb == "check":
        ok = _check(name, operands)
        if ok or as_json:
            _emit(as_json, "ok", ok=ok)
        if not ok:
            print("check-failed: oracle disagrees with the engine", file=sys.stderr)
            return 1
    return 0


def _check(name: str, operands: Sequence[str]) -> bool:
    if name == "check compose":
        return check_compose(parse_layout(operands[0]), parse_layout(operands[1]))
    if name == "check complement":
        n = _parse(operands[1], _Scanner.operand) if len(operands) > 1 else None
        return check_complement(parse_layout(operands[0]), n=n)
    a = parse_layout(operands[0])
    return functions_equal(a.coalesce(), a)


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


if __name__ == "__main__":
    sys.exit(main())
