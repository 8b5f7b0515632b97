"""Canonical text notation.

Grammar (no whitespace in canonical output; in input, whitespace separates
tokens and is otherwise ignored, so ``1 6`` is two integers)::

    TUPLE    := INT | "(" TUPLE ("," TUPLE)* ")" | "()"    (INT: ASCII digits)
    LAYOUT   := TUPLE ":" TUPLE
    MAP      := INT ("," INT)*                   (also the CLI's ``--map``)
    MORPHISM := TUPLE "--(" MAP? ")-->" TUPLE   (0 = basepoint)
    OPERAND  := "-"? INT                         (a CLI size or index)

A bare integer and a length-1 tuple are distinct: ``10:2`` is depth 0 while
``(10):(2)`` has one mode.
"""

from __future__ import annotations

from typing import Tuple

from .errors import NotationError
from .nestcat import Layout, NestMorphism, nest_morphism
from .shapes import Nested, format_nested

# -- formatting: each type's ``str`` is its canonical text ----------------


def format_layout(layout: Layout) -> str:
    return str(layout)


def format_morphism(f: NestMorphism) -> str:
    return str(f)


# -- parsing ---------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        """The first character of the next token, or "" at the end."""
        while self.text[self.pos : self.pos + 1].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def take(self, token: str) -> None:
        if not self.tries(token):
            raise NotationError(
                f"expected {token!r} at position {self.pos} in {self.text!r}"
            )

    def tries(self, token: str) -> bool:
        self.peek()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        self.peek()
        start = self.pos
        while "0" <= self.text[self.pos : self.pos + 1] <= "9":
            self.pos += 1
        if self.pos == start:
            raise NotationError(
                f"expected an integer at position {start} in {self.text!r}"
            )
        try:
            return int(self.text[start : self.pos])
        except ValueError as exc:  # more digits than ``int`` converts
            raise NotationError(f"not an integer: {exc}") from None

    def operand(self) -> int:
        return -self.integer() if self.tries("-") else self.integer()

    def map(self) -> Tuple[int, ...]:
        out = (self.integer(),)
        while self.tries(","):
            out += (self.integer(),)
        return out

    def nested(self) -> Nested:
        if not self.tries("("):
            return self.integer()
        if self.tries(")"):
            return ()
        items = [self.nested()]
        while self.tries(","):
            items.append(self.nested())
        self.take(")")
        return tuple(items)

    def layout(self) -> Tuple[Nested, Nested]:
        shape = self.nested()
        self.take(":")
        return shape, self.nested()

    def morphism(self) -> Tuple[Nested, Nested, Tuple[int, ...]]:
        domain = self.nested()
        self.take("--(")
        amap = self.map() if self.peek() != ")" else ()
        self.take(")-->")
        return domain, self.nested(), amap

    def done(self) -> None:
        if self.peek():
            raise NotationError(
                f"trailing text {self.text[self.pos:]!r} in {self.text!r}"
            )


def _parse(text: str, read):
    """What ``read`` reads from all of ``text``; nesting too deep to read is malformed."""
    sc = _Scanner(text)
    try:
        out = read(sc)
    except RecursionError:
        raise NotationError("nesting too deep") from None
    sc.done()
    return out


def parse_nested(text: str) -> Nested:
    return _parse(text, _Scanner.nested)


def parse_layout(text: str) -> Layout:
    # malformed text raises NotationError; a well-formed description of an
    # invalid layout (e.g. incongruent trees) stays a domain error
    return Layout(*_parse(text, _Scanner.layout))


def parse_morphism(text: str) -> NestMorphism:
    return nest_morphism(*_parse(text, _Scanner.morphism))
