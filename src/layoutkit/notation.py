"""Canonical text notation.

Grammar (no whitespace in canonical output; in input, whitespace separates
tokens and is otherwise ignored, so ``1 6`` is two integers)::

    TUPLE    := INT | "(" TUPLE ("," TUPLE)* ")" | "()"    (INT: ASCII digits)
    LAYOUT   := TUPLE ":" TUPLE
    MAP      := INT ("," INT)*                   (also the CLI's ``--map``)
    MORPHISM := TUPLE "--(" MAP? ")-->" TUPLE   (0 = basepoint)
    OPERAND  := "-"? INT                         (a CLI size or index)

A bare integer and a length-1 tuple are distinct: ``10:2`` is depth 0 while
``(10):(2)`` has one mode; text nests at most :data:`MAX_DEPTH` deep.
"""

from __future__ import annotations

from typing import Tuple

from .errors import NotationError
from .nestcat import Layout, NestMorphism, nest_morphism
from .shapes import Nested, format_nested

MAX_DEPTH = 1000  #: the most tuples open at once that the reader accepts

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
        stack: list = []  # the items read so far in each open tuple, at most MAX_DEPTH
        while True:
            x = ()
            if not self.tries("("):
                x = self.integer()
            elif not self.tries(")"):
                if len(stack) == MAX_DEPTH:
                    raise NotationError("nesting too deep")
                stack.append([])
                continue
            while stack:  # close each tuple that the item ends, until a comma
                stack[-1].append(x)
                if self.tries(","):
                    break
                self.take(")")
                x = tuple(stack.pop())
            else:
                return x

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
    """What ``read`` reads from all of ``text``, which must be a ``str``."""
    if not isinstance(text, str):
        raise NotationError(f"expected text, got {type(text).__name__}")
    sc = _Scanner(text)
    out = read(sc)
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
