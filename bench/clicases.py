"""cli-mix: command lines for ``layoutkit.cli.main`` and the check of each
run's exit code and output.

Fixed cases are the golden transcripts of the README and the test suite,
with their exact output.  Generated cases cover every verb; an exit-0 case
is checked by meaning (its output parsed and compared with the oracle or a
definition), an exit-1 or exit-2 case by its exit code and the prefix of
its stderr line.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from typing import Callable, List, NamedTuple, Optional, Tuple

from layoutkit import (
    Layout,
    LayoutError,
    NotationError,
    check_complement,
    concat_layouts,
    flatten,
    refines,
    standard_representation_nested,
    table_of,
)
from layoutkit.cli import main
from layoutkit.notation import format_layout, format_morphism, format_nested, parse_layout, parse_morphism, parse_nested

import checks
from gen import Gen, Spec, chain


class Expect(NamedTuple):
    code: int
    golden: Optional[str] = None  # exact stdout
    err: Optional[str] = None  # stderr prefix
    check: Optional[str] = None  # name of the meaning check for exit 0
    data: object = None


def run_main(argv) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


#: golden transcripts (README and tests), exact stdout
GOLDEN: List[Tuple[Tuple[str, ...], str]] = [
    (("compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"), "((4,4),(2,2)):((2,64),(256,1))"),
    (("coalesce", "((2,2),(2,2),(5,5)):((1,2),(16,32),(64,640))"), "(4,20,5):(1,16,640)"),
    (("coalesce-rel", "((2,2),(3,3),(5,5)):((1,2),(4,12),(36,180))", "((2,2),9,25)"), "((2,2),9,25):((1,2),4,36)"),
    (("complement", "((2,2),(2,2)):((8,2),(64,256))", "4096"), "(2,2,4,2,8):(1,4,16,128,512)"),
    (("divide", "(64,32):(32,1)", "(4,4):(1,64)"), "((4,4),(16,8)):((32,1),(128,4))"),
    (("product", "(3,10,10):(200,1,20)", "(2,2):(1,2)"), "((3,10,10),(2,2)):((200,1,20),(10,600))"),
    (("tractable", "(2,2,2):(1,2,4)"), "true"),
    (("tractable", "(2,2,2):(1,7,4)"), "false"),
    (("morphism", "(2,2,2):(1,2,4)"), "(2,2,2)--(1,2,3)-->(2,2,2)"),
    (("layout-of", "((5,5),8)--(1,3,2)-->(5,8,5)"), "((5,5),8):((1,40),5)"),
    (("compose", "((2,2),(2,2))--(3,2,6,5)-->((2,2,2),(2,2,2))", "((2,2,2),(2,2,2))--(1,0,2,0,3,4)-->(2,2,2,2)"),
     "((2,2),(2,2))--(2,0,4,3)-->(2,2,2,2)"),
    (("coalesce", "(2,2,10,10)--(1,2,4,5)-->(2,2,2,10,10)"), "(4,100)--(1,3)-->(4,2,100)"),
    (("complement", "(2,2)--(1,3)-->(2,5,2,5)"), "(5,5)--(2,4)-->(2,5,2,5)"),
    (("divide", "(4,8,4,8)--(1,2,3,4)-->(4,8,4,8)", "(4,4)--(1,3)-->(4,8,4,8)"), "((4,4),(8,8))--(1,3,2,4)-->(4,8,4,8)"),
    (("product", "(2,2)--(1,2)-->(2,2,5,5)", "(5,5)--(2,1)-->(5,5)"), "((2,2),(5,5))--(1,2,4,3)-->(2,2,5,5)"),
    (("compose", "(4):(1)", "(2,2):(2,1)"), "((2,2)):((2,1))"),
    (("compose", "(6,6):(6,1)", "(12,3,6):(1,72,12)"), "((2,3),6):((6,72),1)"),
    (("compose", "(8,8):(8,1)", "(16,16):(16,1)"), "((2,4),8):((128,1),16)"),
    (("compose", "(16,16):(16,1)", "(8,8,8):(64,8,1)"), "((4,4),(8,2)):((16,1),(64,8))"),
    (("compose", "(6,6):(5,60)", "(10,360):(2,60)"), "((2,3),6):((10,60),360)"),
    (("complement", "((16,4),64):((1,16),64)", "8192"), "2:4096"),
    (("render", "(3,5):(2,10)"), " 0 10 20 30 40\n 2 12 22 32 42\n 4 14 24 34 44"),
    (("eval", "(2,3):(1,5)", "3"), "6"),
    (("mutual-refine", "(6,6)", "(12,3,6)"), "(6,(2,3))\n((6,2),3,6)"),
    (("layout-of", "((5,5),8)", "(5,8,5)", "--map", "1,3,2"), "((5,5),8):((1,40),5)"),
    (("render", "1:0"), "0"),
    (("--json", "morphism", "(2,2,2):(1,2,4)"), '{"domain": [2, 2, 2], "codomain": [2, 2, 2], "map": [1, 2, 3]}'),
    (("--json", "tractable", "(2,2,2):(1,7,4)"), '{"tractable": false}'),
    (("check", "compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"), "ok"),
    (("check", "complement", "(4,4):(1,16)", "64"), "ok"),
    (("check", "coalesce", "(2,2):(1,2)"), "ok"),
]

#: fixed refusals from the tests: (argv, exit code, stderr prefix)
REFUSALS = [
    (("compose", "64:1", "(3,3):(3,1)"), 1, "not-composable:"),
    (("complement", "(2,2):(3,4)"), 1, "not-complementable:"),
    (("mutual-refine", "(8,8)", "(3,8,8)"), 1, "not-composable:"),
    (("render", "(2,2,2):(1,2,4)"), 1, "domain-error:"),
    (("coalesce", "(2,:(1)"), 2, "parse-error:"),
    (("eval", "(2,3):(1,5)", "x"), 2, "parse-error:"),
    (("frobnicate",), 2, "usage:"),
    (("check", "frobnicate", "(2,2):(1,2)"), 2, "parse-error:"),
]

#: known defect classes, run once per cli-mix run after the timed phase:
#: nesting deeper than the interpreter's recursion limit must still give a
#: parse error, and a render past the oracle's 10**6-point cap must either
#: print the right grid or refuse with cap-exceeded
DEEP = "(" * 3000 + "2" + ")" * 3000
DEEP_ARGV = ("tractable", DEEP + ":" + DEEP.replace("2", "1"))
OVERSIZED_RENDER = ("render", "(1001,1000):(1,1001)")

CLI = Spec(
    nonunit=(1, 4), entries=(1, 5), depth=(0, 2), max_size=256,
    palette=(2, 2, 2, 3, 4, 8), broadcasts=1, product_max=16,
)

L = format_layout


def _compose(g, rng):
    a, b = g.compose()
    return ("compose", L(a), L(b)), Expect(0, check="compose", data=(a, b))


def _compose_json(g, rng):
    a, b = g.compose()
    return ("--json", "compose", L(a), L(b)), Expect(0, check="compose", data=(a, b))


def _compose_refused(g, rng):
    b = g.layout()
    n = b.size() + rng.randint(1, 4)
    return ("compose", f"{n}:1", L(b)), Expect(1, err="not-composable:")


def _divide(g, rng):
    a, t = g.logical_divide()
    return ("divide", L(a), L(t)), Expect(0, check="logical_divide", data=(a, t))


def _product(g, rng):
    a, b = g.logical_product()
    return ("product", L(a), L(b)), Expect(0, check="logical_product", data=(a, b))


def _coalesce(g, rng):
    (a,) = g.coalesce()
    return ("coalesce", L(a)), Expect(0, check="coalesce", data=(a,))


def _coalesce_morphism(g, rng):
    f = standard_representation_nested(g.layout())
    return ("coalesce", format_morphism(f)), Expect(0, check="coalesce-m", data=f)


def _coalesce_rel(g, rng):
    a, bar = g.coalesce_relative()
    return ("coalesce-rel", L(a), format_nested(bar)), Expect(0, check="coalesce_relative", data=(a, bar))


def _complement(g, rng):
    while True:
        a, n = g.complement()
        if a.flat().is_complementable():
            argv = ("complement", L(a)) + ((str(n),) if n else ())
            return argv, Expect(0, check="complement", data=(a, n))


def _complement_refused(g, rng):
    a = concat_layouts([g.layout(broadcast=False), Layout(rng.choice((2, 3, 4)), 0)])
    return ("complement", L(a)), Expect(1, err="not-complementable:")


def _complement_morphism(g, rng):
    # no unit or broadcast modes, so the morphism is injective
    modes = chain(rng, g.spec, g.spec.max_size, True, rng.randint(1, 4))
    shape, stride = tuple(s for s, _ in modes), tuple(d for _, d in modes)
    f = standard_representation_nested(Layout(shape, stride))
    return ("complement", format_morphism(f)), Expect(0, check="complement-m", data=f)


def _tractable(g, rng):
    a = g.layout()
    shape, stride = list(flatten(a.shape)), list(flatten(a.stride))
    if len(shape) > 1 and rng.random() < 0.5:
        i = rng.randrange(len(shape))
        stride[i] += 1
        a = Layout(shape[0] if len(shape) == 1 else tuple(shape), tuple(stride))
    want = "true" if checks.is_tractable(shape, stride) else "false"
    return ("tractable", L(a)), Expect(0, golden=want + "\n")


def _morphism(g, rng):
    a = g.layout()
    return ("morphism", L(a)), Expect(0, check="morphism", data=a)


def _layout_of(g, rng):
    f = standard_representation_nested(g.layout())
    if rng.random() < 0.5:
        amap = ",".join(str(x) for x in f.fmap.amap)
        argv = ("layout-of", format_nested(f.domain), format_nested(f.codomain), "--map", amap)
    else:
        argv = ("layout-of", format_morphism(f))
    return argv, Expect(0, check="layout-of", data=f)


def _mutual_refine(g, rng):
    a, b = g.compose()
    t = tuple(standard_representation_nested(a).fmap.codomain)
    u = b.coalesce().shape
    return ("mutual-refine", format_nested(t), format_nested(u)), Expect(0, check="mutual-refine", data=(t, u))


def _mutual_refine_refused(g, rng):
    k = rng.choice((2, 4, 8))
    return ("mutual-refine", f"({k},{k})", f"(3,{k},{k})"), Expect(1, err="not-composable:")


def _render(g, rng):
    a = g.layout(max_size=64)
    rank = len(flatten(a.shape))
    argv = ("render", L(a))
    flatten_to = None
    if rank > 2:
        flatten_to = rng.choice((1, 2))
        argv += ("--flatten-to", str(flatten_to))
    style = rng.choice(("", "", "--tikz", "--json"))
    if style == "--json":
        argv = ("--json",) + argv
    elif style:
        argv += (style,)
    return argv, Expect(0, check="render", data=(a, flatten_to, style))


def _eval(g, rng):
    a = g.layout()
    x = rng.randrange(a.size())
    return ("eval", L(a), str(x)), Expect(0, golden=f"{table_of(a)[x]}\n")


def _check(g, rng):
    what = rng.choice(("compose", "complement", "coalesce"))
    if what == "compose":
        a, b = g.compose()
        argv = ("check", "compose", L(a), L(b))
    elif what == "complement":
        a, n = _complement(g, rng)[1].data
        argv = ("check", "complement", L(a)) + ((str(n),) if n else ())
    else:
        argv = ("check", "coalesce", L(g.layout()))
    return argv, Expect(0, golden="ok\n")


def _malformed(g, rng):
    text = L(g.layout())
    cut = rng.randrange(1, len(text))
    broken = text[:cut] + rng.choice(("(", ")", ",", ":", "x", "")) + text[cut + 1 :]
    try:
        parse_layout(broken)
    except NotationError:
        return ("coalesce", broken), Expect(2, err="parse-error:")
    except LayoutError:
        pass  # well-formed text of an invalid layout is a domain error
    return _malformed(g, rng)


#: generated case makers and their counts in one pool
CASES: Tuple[Tuple[Callable, int], ...] = (
    (_compose, 60), (_compose_json, 15), (_compose_refused, 15),
    (_divide, 40), (_product, 40),
    (_coalesce, 40), (_coalesce_morphism, 20), (_coalesce_rel, 40),
    (_complement, 40), (_complement_refused, 15), (_complement_morphism, 20),
    (_tractable, 40), (_morphism, 40), (_layout_of, 40),
    (_mutual_refine, 30), (_mutual_refine_refused, 10),
    (_render, 40), (_eval, 40), (_check, 30), (_malformed, 25),
)


def build(rng: random.Random) -> List[Tuple[Tuple[str, ...], str, Expect]]:
    g = Gen(rng, CLI, unrelated_share=0.0)
    cases = [(argv, "golden", Expect(0, golden=out + "\n")) for argv, out in GOLDEN]
    cases += [(argv, "test_cli", Expect(code, err=err)) for argv, code, err in REFUSALS]
    for make, count in CASES:
        for _ in range(count):
            argv, expect = make(g, rng)
            cases.append((argv, "generated", expect))
    rng.shuffle(cases)
    return cases


# -- checks --------------------------------------------------------------------


def _layout_out(argv, out: str) -> Layout:
    if argv[0] == "--json":
        d = json.loads(out)
        return Layout(_tup(d["shape"]), _tup(d["stride"]))
    return parse_layout(out)


def _tup(x):
    return x if isinstance(x, int) else tuple(_tup(c) for c in x)


def _grid_text(a: Layout, flatten_to, style: str, table=None) -> str:
    """The grid ``render`` should print, from the oracle's table."""
    flat = a.flat()
    t = (table or table_of(a)).values
    if flat.rank == 0:
        cells = [[0]]
    elif flat.rank == 1 or flatten_to == 1:
        cells = [[v] for v in t]
    else:
        rows = flat.shape[0]
        cells = [[t[i + rows * j] for j in range(len(t) // rows)] for i in range(rows)]
    if style == "--json":
        return json.dumps({"rows": len(cells), "cols": len(cells[0]), "cells": cells}) + "\n"
    if style == "--tikz":
        lines = ["\\begin{tikzpicture}", f"\\draw (0,0) grid ({len(cells[0])},{len(cells)});"]
        lines += [
            f"\\node at ({j}.5,{len(cells) - 1 - i}.5) {{{v}}};"
            for i, row in enumerate(cells)
            for j, v in enumerate(row)
        ]
        return "\n".join(lines + ["\\end{tikzpicture}"]) + "\n"
    width = max(len(str(v)) for row in cells for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in cells) + "\n"


def _morph_flat(f):
    return checks.morphism_flat(f.domain, f.codomain, f.fmap.amap)


def _check_meaning(argv, out: str, kind: str, data) -> Optional[str]:
    if kind in ("compose", "logical_divide", "logical_product", "coalesce", "coalesce_relative", "complement"):
        return checks.layout_op(kind, data, _layout_out(argv, out))
    if kind == "coalesce-m":
        g = parse_morphism(out)
        ok = table_of(_morph_flat(g)) == table_of(_morph_flat(data))
    elif kind == "complement-m":
        g = parse_morphism(out)
        n = 1
        for c in flatten(data.codomain):
            n *= c
        ok = flatten(g.codomain) == flatten(data.codomain) and check_complement(_morph_flat(data), _morph_flat(g), n=n)
    elif kind == "morphism":
        f = parse_morphism(out)
        ok = f.domain == data.shape and table_of(_morph_flat(f)) == table_of(data)
    elif kind == "layout-of":
        l = parse_layout(out)
        want = _morph_flat(data)
        ok = l.shape == data.domain and flatten(l.stride) == want.stride
    elif kind == "mutual-refine":
        t, u = data
        lines = out.splitlines()
        tf, uf = parse_nested(lines[0]), parse_nested(lines[1])
        ok = refines(tf, t) and refines(uf, u) and flatten(uf)[: len(flatten(tf))] == flatten(tf)
    elif kind == "render":
        ok = out == _grid_text(*data)
    else:
        raise ValueError(kind)
    return None if ok else f"{kind} output {out.strip()[:80]!r} is wrong"


def verify(argv, expect: Expect, r: Tuple[int, str, str]) -> Optional[str]:
    code, out, err = r
    if code != expect.code:
        return f"exit {code}, expected {expect.code}: {err.strip()[:100]}"
    if expect.golden is not None and out != expect.golden:
        return f"stdout {out.strip()[:80]!r} differs from golden {expect.golden.strip()[:80]!r}"
    if expect.err is not None and not err.startswith(expect.err):
        return f"stderr {err.strip()[:80]!r} does not start with {expect.err!r}"
    if expect.check:
        return _check_meaning(argv, out, expect.check, expect.data)
    return None


def oversized_ok(code: int, out: str, err: str) -> Optional[str]:
    """The oversized render either refuses with cap-exceeded or prints the
    right grid."""
    if code == 1 and err.startswith("cap-exceeded:"):
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:100]}"
    a = parse_layout(OVERSIZED_RENDER[1])
    return None if out == _grid_text(a, None, "", table_of(a, cap=a.size())) else "grid is wrong"
