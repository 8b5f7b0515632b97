"""Command-line front end: verbs, output forms, exit codes."""

import json
import random

import pytest

from layoutkit import Layout
from layoutkit.cli import main
from layoutkit.notation import format_nested

from generators import random_layout, random_morphism, random_nested_tuple


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.rstrip("\n"), out.err.rstrip("\n")


class TestLayoutVerbs:
    def test_compose(self, capsys):
        code, out, _ = run(
            capsys, "compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"
        )
        assert (code, out) == (0, "((4,4),(2,2)):((2,64),(256,1))")

    def test_coalesce(self, capsys):
        code, out, _ = run(
            capsys, "coalesce", "((2,2),(2,2),(5,5)):((1,2),(16,32),(64,640))"
        )
        assert (code, out) == (0, "(4,20,5):(1,16,640)")

    def test_coalesce_rel(self, capsys):
        code, out, _ = run(
            capsys,
            "coalesce-rel",
            "((2,2),(3,3),(5,5)):((1,2),(4,12),(36,180))",
            "((2,2),9,25)",
        )
        assert (code, out) == (0, "((2,2),9,25):((1,2),4,36)")

    def test_complement(self, capsys):
        code, out, _ = run(
            capsys, "complement", "((2,2),(2,2)):((8,2),(64,256))", "4096"
        )
        assert (code, out) == (0, "(2,2,4,2,8):(1,4,16,128,512)")

    def test_divide(self, capsys):
        code, out, _ = run(capsys, "divide", "(64,32):(32,1)", "(4,4):(1,64)")
        assert (code, out) == (0, "((4,4),(16,8)):((32,1),(128,4))")

    def test_product(self, capsys):
        code, out, _ = run(
            capsys, "product", "(3,10,10):(200,1,20)", "(2,2):(1,2)"
        )
        assert (code, out) == (0, "((3,10,10),(2,2)):((200,1,20),(10,600))")

    def test_tractable(self, capsys):
        assert run(capsys, "tractable", "(2,2,2):(1,2,4)") == (0, "true", "")
        assert run(capsys, "tractable", "(2,2,2):(1,7,4)") == (0, "false", "")

    def test_eval(self, capsys):
        assert run(capsys, "eval", "(2,3):(1,5)", "3") == (0, "6", "")
        # the shape's product exceeds 2^63-1, but the index and the value do not
        layout = "(4611686018427387904,4):(1,2305843009213693952)"
        assert run(capsys, "eval", layout, "1") == (0, "1", "")


class TestMorphismVerbs:
    def test_morphism(self, capsys):
        code, out, _ = run(capsys, "morphism", "(2,2,2):(1,2,4)")
        assert (code, out) == (0, "(2,2,2)--(1,2,3)-->(2,2,2)")

    def test_layout_of(self, capsys):
        code, out, _ = run(capsys, "layout-of", "((5,5),8)--(1,3,2)-->(5,8,5)")
        assert (code, out) == (0, "((5,5),8):((1,40),5)")

    def test_layout_of_with_map_flag(self, capsys):
        code, out, _ = run(
            capsys, "layout-of", "((5,5),8)", "(5,8,5)", "--map", "1,3,2"
        )
        assert (code, out) == (0, "((5,5),8):((1,40),5)")

    def test_layout_of_at_the_64_bit_edge(self, capsys):
        # every stride is in range, though the codomain's size is 2^64
        code, out, _ = run(
            capsys, "layout-of", "(4611686018427387904)--(2)-->(4,4611686018427387904)"
        )
        assert (code, out) == (0, "(4611686018427387904):(4)")

    def test_coalesce_with_map_flag(self, capsys):
        code, out, _ = run(
            capsys, "coalesce", "(2,2,10,10)", "(2,2,2,10,10)", "--map", "1,2,4,5"
        )
        assert (code, out) == (0, "(4,100)--(1,3)-->(4,2,100)")

    def test_complement_with_map_flag(self, capsys):
        code, out, _ = run(capsys, "complement", "(2,2)", "(2,5,2,5)", "--map", "1,3")
        assert (code, out) == (0, "(5,5)--(2,4)-->(2,5,2,5)")

    def test_map_flag_only_on_coalesce_complement_layout_of(self, capsys):
        code, out, err = run(capsys, "compose", "--map", "1", "(2)", "(2)")
        assert (code, out) == (2, "")
        assert err.startswith("usage: layoutkit")
        assert err.endswith("error: unrecognized arguments: --map")

    def test_compose_morphisms(self, capsys):
        code, out, _ = run(
            capsys,
            "compose",
            "((2,2),(2,2))--(3,2,6,5)-->((2,2,2),(2,2,2))",
            "((2,2,2),(2,2,2))--(1,0,2,0,3,4)-->(2,2,2,2)",
        )
        assert (code, out) == (0, "((2,2),(2,2))--(2,0,4,3)-->(2,2,2,2)")

    def test_coalesce_morphism(self, capsys):
        code, out, _ = run(
            capsys, "coalesce", "(2,2,10,10)--(1,2,4,5)-->(2,2,2,10,10)"
        )
        assert (code, out) == (0, "(4,100)--(1,3)-->(4,2,100)")

    def test_complement_morphism(self, capsys):
        code, out, _ = run(capsys, "complement", "(2,2)--(1,3)-->(2,5,2,5)")
        assert (code, out) == (0, "(5,5)--(2,4)-->(2,5,2,5)")

    def test_divide_morphisms(self, capsys):
        code, out, _ = run(
            capsys,
            "divide",
            "(4,8,4,8)--(1,2,3,4)-->(4,8,4,8)",
            "(4,4)--(1,3)-->(4,8,4,8)",
        )
        assert (code, out) == (0, "((4,4),(8,8))--(1,3,2,4)-->(4,8,4,8)")

    def test_product_morphisms(self, capsys):
        code, out, _ = run(
            capsys,
            "product",
            "(2,2)--(1,2)-->(2,2,5,5)",
            "(5,5)--(2,1)-->(5,5)",
        )
        assert (code, out) == (0, "((2,2),(5,5))--(1,2,4,3)-->(2,2,5,5)")

    def test_mutual_refine(self, capsys):
        code, out, _ = run(capsys, "mutual-refine", "(6,6)", "(12,3,6)")
        assert code == 0
        assert out.splitlines() == ["(6,(2,3))", "((6,2),3,6)"]

    def test_mutual_refine_failure(self, capsys):
        code, _, err = run(capsys, "mutual-refine", "(8,8)", "(3,8,8)")
        assert code == 1
        assert "not-composable" in err

    def test_mutual_refine_zero_entry_exit_1(self, capsys):
        for t, u in (("(0,4)", "(4)"), ("(4)", "(0,4)")):
            code, out, err = run(capsys, "mutual-refine", t, u)
            assert (code, out) == (1, "")
            assert err.startswith("domain-error:")


class TestRender:
    def test_grid(self, capsys):
        code, out, _ = run(capsys, "render", "(3,5):(2,10)")
        rows = [row.split() for row in out.splitlines()]
        assert code == 0
        assert [r[0] for r in rows] == ["0", "2", "4"]
        assert rows[0] == ["0", "10", "20", "30", "40"]

    def test_single_column(self, capsys):
        code, out, _ = run(capsys, "render", "(8):(5)")
        assert code == 0
        assert [row.strip() for row in out.splitlines()] == [
            str(5 * i) for i in range(8)
        ]

    def test_trivial(self, capsys):
        assert run(capsys, "render", "1:0") == (0, "0", "")

    def test_rank_over_two_needs_flatten(self, capsys):
        code, _, err = run(capsys, "render", "(2,2,2):(1,2,4)")
        assert code == 1
        assert "--flatten-to" in err
        code, out, _ = run(
            capsys, "render", "(2,2,2):(1,2,4)", "--flatten-to", "2"
        )
        assert code == 0
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("n", ["0", "3"])
    def test_flatten_to_only_one_or_two(self, capsys, n):
        code, _, err = run(capsys, "render", "(2,2,2):(1,2,4)", "--flatten-to", n)
        assert code == 2
        assert "invalid choice" in err

    def test_over_cap_refused(self, capsys):
        # 1,001,000 cells: over the oracle's cap, refused before tabulating
        code, out, err = run(capsys, "render", "(1001,1000):(1,1001)")
        assert (code, out) == (1, "")
        assert err.startswith("cap-exceeded:")

    def test_tikz(self, capsys):
        code, out, _ = run(capsys, "render", "(2,2):(1,2)", "--tikz")
        assert code == 0
        assert out.startswith("\\begin{tikzpicture}")
        assert "grid" in out


#: the exact stdout of ``--json`` for every verb that emits JSON, on layouts
#: and on morphisms; compared as bytes, not as parsed JSON
_JSON_TRANSCRIPTS = {
    "coalesce-layout": (
        ("coalesce", "((2,2),(2,2),(5,5)):((1,2),(16,32),(64,640))"),
        '{"shape": [4, 20, 5], "stride": [1, 16, 640]}',
    ),
    "coalesce-morphism": (
        ("coalesce", "(2,2,10,10)--(1,2,4,5)-->(2,2,2,10,10)"),
        '{"domain": [4, 100], "codomain": [4, 2, 100], "map": [1, 3]}',
    ),
    "coalesce-depth-0": (
        ("coalesce", "4:1"),
        '{"shape": 4, "stride": 1}',
    ),
    "complement-layout": (
        ("complement", "((2,2),(2,2)):((8,2),(64,256))", "4096"),
        '{"shape": [2, 2, 4, 2, 8], "stride": [1, 4, 16, 128, 512]}',
    ),
    "complement-morphism": (
        ("complement", "(2,2)--(1,3)-->(2,5,2,5)"),
        '{"domain": [5, 5], "codomain": [2, 5, 2, 5], "map": [2, 4]}',
    ),
    "complement-empty-morphism": (
        ("complement", "()--()-->()"),
        '{"domain": [], "codomain": [], "map": []}',
    ),
    "compose-layouts": (
        ("compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"),
        '{"shape": [[4, 4], [2, 2]], "stride": [[2, 64], [256, 1]]}',
    ),
    "compose-morphisms": (
        (
            "compose",
            "((2,2),(2,2))--(3,2,6,5)-->((2,2,2),(2,2,2))",
            "((2,2,2),(2,2,2))--(1,0,2,0,3,4)-->(2,2,2,2)",
        ),
        '{"domain": [[2, 2], [2, 2]], "codomain": [2, 2, 2, 2], "map": [2, 0, 4, 3]}',
    ),
    "divide-layouts": (
        ("divide", "(64,32):(32,1)", "(4,4):(1,64)"),
        '{"shape": [[4, 4], [16, 8]], "stride": [[32, 1], [128, 4]]}',
    ),
    "divide-morphisms": (
        ("divide", "(4,8,4,8)--(1,2,3,4)-->(4,8,4,8)", "(4,4)--(1,3)-->(4,8,4,8)"),
        '{"domain": [[4, 4], [8, 8]], "codomain": [4, 8, 4, 8], "map": [1, 3, 2, 4]}',
    ),
    "product-layouts": (
        ("product", "(3,10,10):(200,1,20)", "(2,2):(1,2)"),
        '{"shape": [[3, 10, 10], [2, 2]], "stride": [[200, 1, 20], [10, 600]]}',
    ),
    "product-morphisms": (
        ("product", "(2,2)--(1,2)-->(2,2,5,5)", "(5,5)--(2,1)-->(5,5)"),
        '{"domain": [[2, 2], [5, 5]], "codomain": [2, 2, 5, 5], "map": [1, 2, 4, 3]}',
    ),
    "coalesce-rel": (
        ("coalesce-rel", "((2,2),(3,3),(5,5)):((1,2),(4,12),(36,180))", "((2,2),9,25)"),
        '{"shape": [[2, 2], 9, 25], "stride": [[1, 2], 4, 36]}',
    ),
    "tractable": (
        ("tractable", "(2,2,2):(1,2,4)"),
        '{"tractable": true}',
    ),
    "morphism": (
        ("morphism", "(2,2,2):(1,2,4)"),
        '{"domain": [2, 2, 2], "codomain": [2, 2, 2], "map": [1, 2, 3]}',
    ),
    "mutual-refine": (
        ("mutual-refine", "(6,6)", "(12,3,6)"),
        '{"first": [6, [2, 3]], "second": [[6, 2], 3, 6]}',
    ),
    "render": (
        ("render", "(3,5):(2,10)"),
        '{"rows": 3, "cols": 5, '
        '"cells": [[0, 10, 20, 30, 40], [2, 12, 22, 32, 42], [4, 14, 24, 34, 44]]}',
    ),
    "eval": (
        ("eval", "(2,3):(1,5)", "3"),
        '{"value": 6}',
    ),
    "check": (
        ("check", "compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"),
        '{"ok": true}',
    ),
    "layout-of-arrow": (
        ("layout-of", "((5,5),8)--(1,3,2)-->(5,8,5)"),
        '{"shape": [[5, 5], 8], "stride": [[1, 40], 5]}',
    ),
    "layout-of-map": (
        ("layout-of", "((5,5),8)", "(5,8,5)", "--map", "1,3,2"),
        '{"shape": [[5, 5], 8], "stride": [[1, 40], 5]}',
    ),
    "coalesce-map": (
        ("coalesce", "(2,2,10,10)", "(2,2,2,10,10)", "--map", "1,2,4,5"),
        '{"domain": [4, 100], "codomain": [4, 2, 100], "map": [1, 3]}',
    ),
    "complement-map": (
        ("complement", "(2,2)", "(2,5,2,5)", "--map", "1,3"),
        '{"domain": [5, 5], "codomain": [2, 5, 2, 5], "map": [2, 4]}',
    ),
}


class TestJson:
    def test_layout(self, capsys):
        code, out, _ = run(
            capsys, "--json", "complement", "((2,2),(2,2)):((8,2),(64,256))", "4096"
        )
        assert code == 0
        assert json.loads(out) == {
            "shape": [2, 2, 4, 2, 8],
            "stride": [1, 4, 16, 128, 512],
        }

    def test_morphism(self, capsys):
        code, out, _ = run(capsys, "--json", "morphism", "(2,2,2):(1,2,4)")
        assert json.loads(out) == {
            "domain": [2, 2, 2],
            "codomain": [2, 2, 2],
            "map": [1, 2, 3],
        }

    def test_tractable(self, capsys):
        code, out, _ = run(capsys, "--json", "tractable", "(2,2,2):(1,7,4)")
        assert json.loads(out) == {"tractable": False}

    def test_render(self, capsys):
        code, out, _ = run(capsys, "--json", "render", "(2,2):(1,2)")
        assert json.loads(out) == {"rows": 2, "cols": 2, "cells": [[0, 2], [1, 3]]}

    @pytest.mark.parametrize(
        "argv, stdout", _JSON_TRANSCRIPTS.values(), ids=_JSON_TRANSCRIPTS.keys()
    )
    def test_transcript_byte_exact(self, capsys, argv, stdout):
        assert main(["--json", *argv]) == 0
        assert capsys.readouterr() == (stdout + "\n", "")

    def test_deep_compose(self, capsys):
        deep = "(" * 900 + "{}" + ")" * 900
        layout = deep.format(4) + ":" + deep.format(1)
        assert main(["--json", "compose", layout, "4:1"]) == 0
        wanted = '{"shape": ' + deep.format(4) + ', "stride": ' + deep.format(1) + "}\n"
        wanted = wanted.replace("(", "[").replace(")", "]")
        assert capsys.readouterr() == (wanted, "")
        assert len(wanted) == 3626


class TestCheckAndExitCodes:
    def test_check_compose(self, capsys):
        code, out, _ = run(
            capsys, "check", "compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"
        )
        assert (code, out) == (0, "ok")

    def test_check_complement(self, capsys):
        assert run(capsys, "check", "complement", "(4,4):(1,16)", "64")[0] == 0

    def test_check_coalesce(self, capsys):
        assert run(capsys, "check", "coalesce", "(2,2):(1,2)")[0] == 0

    def test_check_arity_exit_2(self, capsys):
        for argv, wanted in (
            (("compose", "8:1"), "check compose takes two layouts, got 1"),
            (("compose", "8:1", "16:1", "4:1"), "check compose takes two layouts, got 3"),
            (("complement",), "check complement takes a layout and an optional size, got 0"),
            (("complement", "4:1", "8", "9"), "check complement takes a layout and an optional size, got 3"),
            (("coalesce", "(2,2):(1,2)", "extra"), "check coalesce takes one layout, got 2"),
        ):
            code, out, err = run(capsys, "check", *argv)
            assert (code, out, err) == (2, "", "parse-error: " + wanted)

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "compose", "64:1", "(3,3):(3,1)")
        assert code == 1
        assert err.startswith("not-composable:")

    def test_not_complementable_exit_1(self, capsys):
        code, _, err = run(capsys, "complement", "(2,2):(3,4)")
        assert code == 1
        assert err.startswith("not-complementable:")

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "coalesce", "(2,:(1)")
        assert code == 2
        assert err.startswith("parse-error:")

    def test_bad_integer_exit_2(self, capsys):
        code, out, err = run(capsys, "eval", "(2,3):(1,5)", "x")
        assert (code, out) == (2, "")
        assert err.startswith("parse-error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "\u00b2:1", "0"),
            ("complement", "8:1", "1e3"),
            ("layout-of", "(2)", "(2)", "--map", "1,x"),
            ("coalesce", "1" * 5000 + ":1"),
            # the size is read before the layout, whose zero entry is exit 1
            ("complement", "(0):(1)", "x"),
            # whitespace separates tokens; it never joins digits
            ("coalesce", "(1 6):(1)"),
            ("layout-of", "(2 2)--(1)-->(2 2)"),
            # a size or an index is an optional "-" and ASCII digits, read by
            # the scanner that reads layouts, not by int()
            ("complement", "4:1", "1_6"),
            ("complement", "4:1", "+16"),
            ("complement", "4:1", "\u0663\u0662"),
            ("complement", "4:1", "1 6"),
            ("complement", "4:1", "1" * 5000),
            ("eval", "4:1", "-" + "1" * 5000),
            # --map is read by the code that reads the map of arrow text
            ("layout-of", "(2)", "(2)", "--map", "-1"),
            ("layout-of", "(2)--(-1)-->(2)"),
            ("layout-of", "(2)", "(2)", "--map", "+1"),
            ("layout-of", "(2)", "(2)", "--map", "\u0661"),
            ("layout-of", "(2,2)", "(2,2)", "--map", "1 2"),
        ],
        ids=[
            "superscript-digit", "size", "map", "too-many-digits", "size-first",
            "space-in-layout", "space-in-arrow", "size-underscore", "size-plus",
            "size-arabic-indic", "size-space", "size-too-many-digits",
            "index-too-many-digits", "map-minus", "arrow-minus", "map-plus",
            "map-arabic-indic", "map-space",
        ],
    )
    def test_malformed_integer_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("parse-error:")

    @pytest.mark.parametrize(
        "argv, wanted",
        [
            (("compose", "8:1"), "compose takes two layouts or two morphisms, got 1"),
            (("eval", "8:1"), "eval takes a layout and an index, got 1"),
            (("tractable", "8:1", "4:1"), "tractable takes one layout, got 2"),
            (("coalesce-rel", "(4,2):(1,4)"), "coalesce-rel takes a layout and a shape, got 1"),
            (
                ("complement", "4:1", "8", "9"),
                "complement takes a layout and an optional size, or a morphism, got 3",
            ),
            (("mutual-refine", "(4)", "(4)", "(4)"), "mutual-refine takes two tuples, got 3"),
            (("complement", "(2)--(1)-->(2)", "8"), "expected exactly one morphism argument"),
            (("layout-of", "(2)", "--map", "1"), "--map needs exactly two tuple arguments"),
            (("check", "frob", "4:1"), "unknown check target 'frob'"),
        ],
    )
    def test_wrong_arity_exit_2(self, capsys, argv, wanted):
        assert run(capsys, *argv) == (2, "", "parse-error: " + wanted)

    def test_operand_grammar_accepts(self, capsys):
        assert run(capsys, "complement", "4:1", " 16 ") == (0, "4:4", "")
        assert run(capsys, "complement", "4:1", "016") == (0, "4:4", "")
        code, _, err = run(capsys, "complement", "4:1", "-16")
        assert (code, err[:19]) == (1, "not-complementable:")
        code, _, err = run(capsys, "eval", "4:1", "-1")
        assert (code, err) == (1, "domain-error: index -1 out of range for shape (4,)")

    def test_map_whitespace_between_tokens(self, capsys):
        argv = ("layout-of", "(2,2)", "(2,2)", "--map", " 2 , 1 ")
        assert run(capsys, *argv) == (0, "(2,2):(2,1)", "")

    def test_range_error_exit_1(self, capsys):
        code, out, err = run(capsys, "tractable", "(0):(1)")
        assert (code, out) == (1, "")
        assert err.startswith("domain-error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("complement", "2:1", "18446744073709551616"),
            ("coalesce", "(18446744073709551616,1):(0,1)"),
        ],
        ids=["complement-size", "layout-entry"],
    )
    def test_beyond_64_bits_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("overflow:")

    def test_unknown_verb_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_deep_nesting_exit_2(self, capsys):
        deep = "(" * 3000 + "2" + ")" * 3000
        code, _, err = run(capsys, "tractable", deep + ":" + deep.replace("2", "1"))
        assert code == 2
        assert err.startswith("parse-error:")

    # the parsers refuse text nested too deep to read; the engine walks and
    # compares trees of any depth, but repr of an engine object recurses in
    # C, so a RecursionError from a tree the parsers accept exits 2 alike
    def test_engine_recursion_exit_2(self, capsys, monkeypatch):
        def too_deep(*args):
            raise RecursionError

        monkeypatch.setattr(Layout, "is_tractable", too_deep)
        assert run(capsys, "tractable", "4:1") == (2, "", "parse-error: nesting too deep")

    # well-formed layouts nested below the recursion limit are computed,
    # not refused as too deep
    def test_deep_nesting_tractable(self, capsys):
        deep = "(" * 900 + "4" + ")" * 900
        code, out, _ = run(capsys, "tractable", deep + ":" + deep.replace("4", "1"))
        assert (code, out) == (0, "true")

    def test_deep_nesting_compose(self, capsys):
        deep = "(" * 400 + "4" + ")" * 400
        code, _, _ = run(capsys, "compose", deep + ":" + deep.replace("4", "1"), "4:1")
        assert code == 0


#: operand kinds each verb takes: L layout, T tuple, M morphism, N integer
_VERB_OPERANDS = {
    "coalesce": ["L", "M"],
    "coalesce-rel": ["LT"],
    "complement": ["L", "LN", "M"],
    "compose": ["LL", "MM"],
    "divide": ["LL", "MM"],
    "product": ["LL", "MM"],
    "tractable": ["L"],
    "morphism": ["L"],
    "layout-of": ["M"],
    "mutual-refine": ["TT"],
    "render": ["L"],
    "eval": ["LN"],
    "check compose": ["LL"],
    "check complement": ["L", "LN"],
    "check coalesce": ["L"],
}

_ODD_OPERANDS = [
    "(2,:(1)", "x", "8:1:", "(0):(1)", "(18446744073709551616):(1)", "(4):(0)",
    "()", "(2,3):(1,)", "(2)--(1)-->(3)", "(2)--(2)-->(2)", "-1", "\u00b2:1",
]


def _random_argv(rng):
    """A command line for a random verb: operands of the kinds it takes,
    each sometimes malformed or out of range, and sometimes one too many or
    too few."""
    make = {
        "L": lambda: str(random_layout(rng)),
        "T": lambda: format_nested(random_nested_tuple(rng)),
        "M": lambda: str(random_morphism(rng)),
        "N": lambda: str(rng.choice([0, 7, 64, 4096, 2**64])),
    }
    verb = rng.choice(sorted(_VERB_OPERANDS))
    kinds = rng.choice(_VERB_OPERANDS[verb])
    operands = [
        rng.choice(_ODD_OPERANDS) if rng.random() < 0.1 else make[k]() for k in kinds
    ]
    if rng.random() < 0.1:
        operands = operands[1:] if rng.random() < 0.5 else operands + [make["L"]()]
    return (["--json"] if rng.random() < 0.1 else []) + verb.split() + operands


def test_fuzz_exit_codes_only(capsys):
    # every command ends in exit 0, 1 or 2; no exception escapes main
    rng = random.Random(20261018)
    codes = set()
    for _ in range(300):
        argv = _random_argv(rng)
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), argv
        codes.add(code)
    assert codes == {0, 1, 2}
