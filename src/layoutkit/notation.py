"""Canonical text notation.

Grammar (no whitespace in canonical output; parsing is whitespace-tolerant)::

    TUPLE    := INT | "(" TUPLE ("," TUPLE)* ")" | "()"
    LAYOUT   := TUPLE ":" TUPLE
    MORPHISM := TUPLE "--(" INT ("," INT)* ")-->" TUPLE   (0 = basepoint)

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


def _int(text: str) -> int:
    """A decimal integer; anything ``int`` refuses is malformed text."""
    try:
        return int(text)
    except ValueError as exc:
        raise NotationError(f"not an integer: {exc}") from None


class _Scanner:
    def __init__(self, text: str):
        self.text = "".join(text.split())
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, token: str) -> None:
        if not self.text.startswith(token, self.pos):
            raise NotationError(
                f"expected {token!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += len(token)

    def tries(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def integer(self) -> int:
        start = self.pos
        while "0" <= self.peek() <= "9":
            self.pos += 1
        if self.pos == start:
            raise NotationError(
                f"expected an integer at position {start} in {self.text!r}"
            )
        return _int(self.text[start : self.pos])

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

    def done(self) -> None:
        if self.pos != len(self.text):
            raise NotationError(
                f"trailing text {self.text[self.pos:]!r} in {self.text!r}"
            )


def parse_nested(text: str) -> Nested:
    sc = _Scanner(text)
    out = sc.nested()
    sc.done()
    return out


def parse_layout(text: str) -> Layout:
    sc = _Scanner(text)
    shape = sc.nested()
    sc.take(":")
    stride = sc.nested()
    sc.done()
    # malformed text raises NotationError above; a well-formed description
    # of an invalid layout (e.g. incongruent trees) stays a domain error
    return Layout(shape, stride)


def parse_morphism(text: str) -> NestMorphism:
    sc = _Scanner(text)
    domain = sc.nested()
    sc.take("--(")
    amap: Tuple[int, ...] = ()
    if sc.peek() != ")":
        amap = (sc.integer(),)
        while sc.tries(","):
            amap += (sc.integer(),)
    sc.take(")-->")
    codomain = sc.nested()
    sc.done()
    return nest_morphism(domain, codomain, amap)
