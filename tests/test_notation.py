"""Canonical text notation: parsing and printing."""

import pytest
from hypothesis import given

from layoutkit import (
    Layout,
    LayoutError,
    NotationError,
    format_layout,
    format_morphism,
    format_nested,
    parse_layout,
    parse_morphism,
    parse_nested,
)

from generators import nested_tuples, standard_morphisms, tractable_layouts


class TestFormat:
    def test_nested(self):
        assert format_nested(100) == "100"
        assert format_nested((10,)) == "(10)"
        assert format_nested(((2, 2), 4, (9, (3, 3)))) == "((2,2),4,(9,(3,3)))"
        assert format_nested(()) == "()"

    def test_layout(self):
        assert format_layout(Layout(100, 2)) == "100:2"
        assert (
            format_layout(Layout(((4, 4), 4), ((16, 1), 4)))
            == "((4,4),4):((16,1),4)"
        )

    def test_morphism(self):
        from layoutkit import nest_morphism

        f = nest_morphism((16, (4, 4), (4, 4)), (16, 4, 4), (1, 2, 0, 3, 0))
        assert format_morphism(f) == "(16,(4,4),(4,4))--(1,2,0,3,0)-->(16,4,4)"


class TestParse:
    def test_layout(self):
        l = parse_layout("((4,4),4):((16,1),4)")
        assert l == Layout(((4, 4), 4), ((16, 1), 4))
        assert parse_layout("100:2") == Layout(100, 2)
        assert parse_layout("(10):(2)") == Layout((10,), (2,))
        assert parse_layout("100:2") != parse_layout("(100):(2)")

    def test_whitespace_tolerated(self):
        assert parse_layout(" (2, 3) : (1, 2) ") == Layout((2, 3), (1, 2))
        assert parse_morphism(" (2) --( 1 )--> (2) ").fmap.amap == (1,)

    def test_morphism(self):
        f = parse_morphism("(2,2,2,2)--(1,0,4,2)-->(2,2,2,2)")
        assert f.fmap.amap == (1, 0, 4, 2)
        g = parse_morphism("()--()-->()")
        assert g.fmap.amap == ()

    def test_malformed(self):
        # whitespace separates tokens: it never joins digits, nor an arrow
        for text in ["", "2:", "(2,:(1)", "2:1:3", "(2))", "2", "(2,)-(1)", "-2:1",
                     "(1 6):(1)", "1 6:1"]:
            with pytest.raises(NotationError):
                parse_layout(text)
        for text in ["(2)--1-->(2)", "(2)--(1)->(2)", "(2)--(x)-->(2)",
                     "(2 2)--(1)-->(2 2)", "(2)--(1 0)-->(2)", "(2)- -(1)-->(2)"]:
            with pytest.raises(NotationError):
                parse_morphism(text)

    # text nested beyond the interpreter's recursion limit is malformed input
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_nested, "(" * 3000 + "2" + ")" * 3000),
            (parse_layout, "(" * 3000 + "2" + ")" * 3000 + ":1"),
            (parse_morphism, "(" * 3000 + "2" + ")" * 3000 + "--(1)-->(2)"),
        ],
        ids=["nested", "layout", "morphism"],
    )
    def test_too_deep_refused(self, parse, text):
        with pytest.raises(NotationError, match="nesting too deep"):
            parse(text)

    def test_well_formed_but_invalid_is_domain_error(self):
        with pytest.raises(LayoutError):
            parse_layout("(2,2):(1,(2,1))")
        with pytest.raises(LayoutError):
            parse_morphism("(2,3)--(1,1)-->(2,3)")


class TestRoundTrip:
    @given(nested_tuples())
    def test_nested(self, x):
        assert parse_nested(format_nested(x)) == x

    @given(tractable_layouts())
    def test_layout(self, l):
        assert parse_layout(format_layout(l)) == l

    @given(standard_morphisms())
    def test_morphism(self, f):
        parsed = parse_morphism(str(f))
        assert parsed.fmap == f

    @given(tractable_layouts())
    def test_flat_layout(self, l):
        flat = l.flat()
        assert str(flat) == format_layout(
            Layout(flat.shape, flat.stride)
        )

    @given(tractable_layouts())
    def test_canonical_has_no_spaces(self, l):
        assert " " not in format_layout(l)
