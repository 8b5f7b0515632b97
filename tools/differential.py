"""Equivalence gate: run one seeded corpus of public-API calls and CLI
commands against two source trees and print every outcome that differs.

Usage::

    python3 tools/differential.py PARENT_SRC CHANGE_SRC

Each ``*_SRC`` is a directory that holds the ``layoutkit`` package, such as
the ``src`` of a checkout.  The corpus is built once, as text and plain
tuples, from the generators of ``bench/gen.py``, ``bench/clicases.py`` and
``tests/generators.py`` (run against PARENT_SRC's ``layoutkit``).  Each
tree then runs it in a fresh process.  A library outcome is the ``repr`` of
a public call's result (a tuple or list too deep for ``repr`` written on the
tool's own stack), or its error type and message; a CLI outcome is the
exit code, stdout and stderr of ``layoutkit.cli.main``.  The first line
printed is a summary, then each outcome that differs follows.  The exit
status is 0 when no outcome differs and 1 otherwise.

A call is ``(target, args)``.  ``target`` is a public name of
``layoutkit``, a method, property or field as ``Class.name`` (a field is
read off the object, whether its class names it in ``__slots__`` or not),
``"cli"`` with the argument list as its one argument, or ``"cute"`` with an
operation and its two operands, whose outcome is whether the engine agrees
with the symbolic CuTe reference of ``tests/cute_reference.py``.  Each argument
is a spec: ``("=", value)`` is the value itself, ``("deep", n, leaf)`` is
``leaf`` inside ``n`` one-tuples, ``("[]", *specs)`` is a list, ``("Pair", x, y)``
is a two-field ``namedtuple`` node, ``("pickled", spec)`` is the value of
``spec`` after a round trip through ``pickle``, and ``(target, *specs)`` is the
result of that call.  So the corpus holds no object of either tree.  An outcome
of the change's tree where the engine answers otherwise than the CuTe reference
is printed too, and fails the gate as a difference does.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import math
import os
import pickle
import random
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: entries at and around the edges of the signed 64-bit range
EDGE = (0, -1, 2**61, 2**62, 2**63 - 1, 2**63, 2**64)
#: values of the wrong type where an integer is expected
NOT_INT = (2.5, 2.0, True, "2", None)
#: layouts whose shape's product exceeds 2^63-1, to evaluate at the edges
WIDE_EVAL = (
    ((2**62, 4), (1, 2**61)),
    ((4, 2**62), (2**61, 1)),
    ((2**61, 2, 4), (2, 2**62, 1)),
)
#: nesting depths: within the reader's bound ``notation.MAX_DEPTH`` (1,000), at it, one past
#: it, and far beyond it, where only a tree built in code gets through
DEEP = (50, 900, 1000, 1001, 3000)
#: flat layouts whose largest value is at and one past the top of each of the
#: oracle's word widths (1, 2, 4 and 8 bytes), with broadcast and unit modes
WIDTHS = tuple(((2, 2), (1, top - 1)) for top in (255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32)) + (
    ((2, 2, 2), (2**63 - 1, 2**63 - 1, 1)),
    ((2, 2, 2), (2**63 - 1, 2**63 - 1, 2)),
    ((2, 3, 1, 2, 2), (2**63 - 1, 0, 9, 2**63 - 1, 2)),
    ((1, 3, 2, 1, 2), (5, 0, 2**40, 7, 1)),
)
#: the longest outcome kept whole; a longer one keeps its start and a hash
KEEP = 240
#: a tree node that is a tuple of another type, which an operation keeps or nests again
Pair = collections.namedtuple("Pair", "x y")


def lit(value):
    return ("=", value)


def _L(a):
    return ("Layout", lit(a.shape), lit(a.stride))


def _F(f):
    return ("FlatLayout", lit(f.shape), lit(f.stride))


def _T(f):
    return ("TupleMorphism", lit(f.domain), lit(f.codomain), lit(f.amap))


def _N(dom, cod, amap):
    return ("nest_morphism", lit(dom), lit(cod), lit(tuple(amap)))


def _renested(lk, tree) -> list:
    """Trees that flatten as ``tree`` does but are nested otherwise: inside a
    1-tuple, and flat where it is nested."""
    flat = lk.flatten(tree)
    return [(tree,)] + ([flat] if isinstance(tree, tuple) and flat != tree else [])


# -- the corpus ------------------------------------------------------------------


class Corpus:
    """The calls, appended by the batteries below."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        # refinements, 64-bit-edge pairs and tables draw from streams of their own, so no
        # other call moves
        self.refinements = random.Random(seed + 1)
        self.edges = random.Random(seed + 2)
        self.tables = random.Random(seed + 3)
        self.cute = random.Random(seed + 4)
        self.calls: list = []

    def add(self, target: str, *args) -> None:
        self.calls.append((target, args))

    def cli(self, argv) -> None:
        self.calls.append(("cli", (tuple(argv),)))


def _sizes(a, rng):
    """Sizes to complement ``a`` in: multiples of its size and of its
    largest mode's extent, a non-multiple, and the edges."""
    flat = a.flat()
    span = max((s * d for s, d in zip(flat.shape, flat.stride) if s != 1), default=1)
    base = [flat.size() * k for k in (1, 2)] + [span * rng.choice((1, 2, 4)), span + 1]
    return base + [rng.choice(EDGE)]


def layout_battery(c: Corpus, lk, a, b) -> None:
    """Every method of the nested layout ``a`` and of its flat form, with
    ``b`` as the second operand where one is needed."""
    rng = c.rng
    A, B = _L(a), _L(b)
    for name in (
        "__str__", "shape", "stride", "flat", "length", "rank", "depth", "complexity", "size",
        "cosize", "is_tractable", "coalesce", "is_coalesced", "complement", "is_complementable",
        "is_compact",
    ):
        c.add(f"Layout.{name}", A)
    n = a.size()
    for x in (0, rng.randrange(n), n - 1, n, -1):
        c.add("Layout.__call__", A, lit(x))
    shape = lk.flatten(a.shape)
    c.add("Layout.eval_coord", A, lit(tuple(rng.randrange(s) for s in shape)))
    c.add("Layout.eval_coord", A, lit(tuple(shape)))
    for m in _sizes(a, rng):
        c.add("Layout.complement", A, lit(m))
        c.add("Layout.is_n_complementable", A, lit(m))
    c.add("Layout.coalesce_relative", A, lit(lk.size(a.shape)))
    c.add("Layout.coalesce_relative", A, lit(b.shape))
    for op in ("compose", "logical_divide", "logical_product"):
        c.add(f"Layout.{op}", A, B)
    c.add("standard_representation_nested", A)
    c.add("layout_of_nested", ("standard_representation_nested", A))
    c.add("Layout.of_flat", _F(a.flat()))
    c.add("concat_layouts", ("[]", A, B))
    c.add("format_layout", A)
    c.add("parse_layout", lit(lk.format_layout(a)))
    c.add("column_major_layout", lit(a.shape))
    c.add("substitute_profile", A, lit(lk.profile(a.shape)))
    c.add("substitute_profile", A, lit(lk.profile(tuple(shape))))
    flat_battery(c, lk, a.flat(), b.flat())


def flat_battery(c: Corpus, lk, f, g) -> None:
    rng = c.rng
    F, G = _F(f), _F(g)
    for name in (
        "__str__", "shape", "stride", "flat", "rank", "size", "cosize", "squeeze", "filter_zeros",
        "sort", "coalesce", "is_coalesced", "is_tractable", "complement", "is_complementable",
        "is_compact",
    ):
        c.add(f"FlatLayout.{name}", F)
    c.add("FlatLayout.__call__", F, lit(rng.randrange(f.size())))
    c.add("FlatLayout.eval_coord", F, lit(tuple(s - 1 for s in f.shape)))
    modes = list(range(f.rank))
    rng.shuffle(modes)
    c.add("FlatLayout.permute", F, lit(tuple(modes)))
    c.add("FlatLayout.restrict", F, lit(tuple(modes[: rng.randint(0, f.rank)])))
    c.add("FlatLayout.restrict", F, lit((f.rank,)))
    m = rng.choice((f.size(), f.cosize(), 2**63 - 1))
    c.add("FlatLayout.complement", F, lit(m))
    c.add("FlatLayout.is_n_complementable", F, lit(m))
    c.add("standard_representation", F)
    c.add("is_admissible_for_composition", ("FlatLayout.filter_zeros", ("FlatLayout.squeeze", F)), G)
    c.add("concat_flat", ("[]", F, G))
    c.add("column_major", lit(f.shape))


def morphism_battery(c: Corpus, lk, gens, f, g) -> None:
    """Every tuple-morphism operation on ``f`` (``g`` as second operand),
    and the nest-morphism ones on ``f`` with a nested domain."""
    rng = c.rng
    Tf, Tg = _T(f), _T(g)
    for name in (
        "domain", "codomain", "amap", "image", "is_non_degenerate", "is_standard_form",
        "is_injective", "__str__",
    ):
        c.add(f"TupleMorphism.{name}", Tf)
    for op in ("layout_of", "squeeze_m", "sort_m", "coalesce_m", "complement_m"):
        c.add(op, Tf)
    c.add("standard_representation", ("layout_of", Tf))
    c.add("layout_of", ("coalesce_m", Tf))
    if lk.size(f.domain) <= 4096:
        c.add("realize", Tf)
    c.add("compose_morphisms", Tf, Tg)
    c.add("sum_morphisms", Tf, Tg)
    cut = rng.randint(0, len(f.amap))
    halves = [
        _T(lk.TupleMorphism(f.domain[:cut], f.codomain, f.amap[:cut])),
        _T(lk.TupleMorphism(f.domain[cut:], f.codomain, f.amap[cut:])),
    ]
    c.add("concat_morphisms", ("[]", *halves))
    c.add("concat_morphisms", ("[]", Tf, Tf))
    c.add("identity", lit(f.domain))
    dom = gens.random_tree(rng, f.domain) if f.domain else ()
    cod = gens.random_tree(rng, f.codomain) if f.codomain else ()
    Nf = _N(dom, cod, f.amap)
    for name in (
        "domain", "codomain", "fmap", "is_standard_form", "is_non_degenerate", "realize",
        "__str__",
    ):
        c.add(f"NestMorphism.{name}", Nf)
    c.add("NestMorphism", lit(dom), lit(cod), Tf)
    c.add("format_morphism", Nf)
    c.add("parse_morphism", lit(str(lk.nest_morphism(dom, cod, f.amap))))
    c.add("coalesce_nm", Nf)
    c.add("complement_nm", Nf)
    c.add("layout_of_nested", Nf)
    Ng = _N(g.domain, g.codomain, g.amap)
    c.add("compose_nest", Nf, Ng)
    c.add("concat_nm", ("[]", Nf, Nf))
    for other in _renested(lk, cod):  # codomains that flatten alike, nested apart
        c.add("concat_nm", ("[]", Nf, _N(dom, other, f.amap)))
    c.add("logical_divide_m", Ng, Nf)
    c.add("logical_product_m", Nf, Ng)
    with contextlib.suppress(lk.LayoutError):
        # a product whose second operand lands on the complement's domain
        fc = lk.complement_m(f).domain
        c.add("logical_product_m", Nf, _N(fc, fc, range(1, len(fc) + 1)))


def composition_battery(c: Corpus, lk, gens, a, b) -> None:
    """The composition pipeline of ``a`` then ``b``, step by step, and the
    transports along refinements whose sub-trees nest deeper and have unit
    leaves, as well as along the greedy ones."""
    rng = c.refinements
    try:
        f = lk.standard_representation_nested(a)
        g = lk.standard_representation_nested(b.coalesce())
    except lk.LayoutError:
        return
    t, u = tuple(f.fmap.codomain), g.domain
    c.add("mutual_refinement", lit(t), lit(u))
    c.add("divides", lit(t), lit(u))
    Nf = ("standard_representation_nested", _L(a))
    Ng = ("standard_representation_nested", ("Layout.coalesce", _L(b)))
    for N, m in ((Nf, f), (Ng, g)):
        for transport, tree in (("pullback", m.codomain), ("pushforward", m.domain)):
            R = ("Refinement", lit(gens.random_refinement(rng, tree)), lit(tree))
            c.add(*R)
            c.add(transport, N, R)
            for other in _renested(lk, tree):  # over a tree that is not the side, flattened alike
                c.add(transport, N, ("Refinement", lit(other), lit(other)))
    mr = lk.mutual_refinement(t, u)
    if mr is None:
        return
    R1 = ("Refinement", lit(mr.t_ref.fine), lit(mr.t_ref.coarse))
    R2 = ("Refinement", lit(mr.u_ref.fine), lit(mr.u_ref.coarse))
    MR = ("MutualRefinement", R1, R2)
    for name in ("t_ref", "u_ref"):
        c.add(f"MutualRefinement.{name}", MR)
    for name in ("fine", "coarse"):
        c.add(f"Refinement.{name}", R1)
    c.add("make_composable", Nf, Ng, MR)
    c.add("make_composable", Ng, Nf, MR)
    c.add("pullback", Nf, R1)
    c.add("pushforward", Ng, R2)
    c.add("pullback", Ng, R1)
    # the greedy refinements over (t, u) each inside a 1-tuple: over the wrong pair
    Rt, Ru = (("Refinement", lit((r.fine,)), lit((r.coarse,))) for r in (mr.t_ref, mr.u_ref))
    c.add("make_composable", Nf, Ng, ("MutualRefinement", Rt, Ru))
    c.add("make_composable", Nf, Ng, ("MutualRefinement", R1, Ru))
    c.add("divides", lit(mr.t_ref.fine), lit(mr.u_ref.fine))
    c.add("MutualRefinement", R2, R1)
    # the greedy pieces regrouped deeper, with unit leaves at common flat positions
    tp, up = lk.flatten(mr.t_ref.fine), lk.flatten(mr.u_ref.fine)
    for _ in range(rng.randrange(3) if tp else 0):
        k = rng.randint(0, len(tp))
        tp, up = tp[:k] + (1,) + tp[k:], up[:k] + (1,) + up[k:]
    R3 = ("Refinement", lit(gens.random_refinement(rng, t, tp)), lit(t))
    R4 = ("Refinement", lit(gens.random_refinement(rng, u, up)), lit(u))
    c.add("MutualRefinement", R3, R4)
    c.add("make_composable", Nf, Ng, ("MutualRefinement", R3, R4))
    c.add("pullback", Nf, R3)
    c.add("pushforward", Ng, R4)


def shapes_battery(c: Corpus, lk, gen, x, y) -> None:
    """The nested-tuple utilities on ``x`` (``y`` as the other tree)."""
    rng = c.rng
    X = lit(x)
    for op in ("flatten", "profile", "length", "rank", "depth", "size", "format_nested"):
        c.add(op, X)
    c.add("congruent", X, lit(y))
    c.add("parse_nested", lit(lk.format_nested(x)))
    leaves = lk.flatten(x)
    c.add("substitute", lit(leaves), lit(lk.profile(x)))
    c.add("substitute", lit(leaves[1:]), lit(lk.profile(x)))
    coarse = gen.coarsen(x)
    c.add("refines", X, lit(coarse))
    c.add("relative_modes", X, lit(coarse))
    c.add("relative_modes", X, lit(y))
    # a coarse entry that is a 1-tuple, a bare int or (), against each kind of fine entry
    for fine, over in (
        ((x,), (coarse,)), (x, (coarse,)), (x, lk.size(x)),
        ((x, ()), (coarse, ())), ((x, ()), (coarse, 1)), ((x, 1), (coarse, ())),
    ):
        c.add("refines", lit(fine), lit(over))
        c.add("relative_modes", lit(fine), lit(over))
    c.add("prefix_products", lit(leaves))
    c.add("colex", lit(leaves), lit(tuple(rng.randrange(e) for e in leaves)))
    c.add("colex_inv", lit(leaves), lit(rng.randrange(lk.size(x) + 1)))


def oracle_battery(c: Corpus, lk, a, b) -> None:
    A, B = _L(a), _L(b)
    c.add("table_of", A)
    c.add("FunctionTable.size", ("table_of", A))
    c.add("FunctionTable.is_bijection_onto_range", ("table_of", A))
    for x in (a.size() - 1, -1, a.size(), True):
        c.add("FunctionTable.__getitem__", ("table_of", A), lit(x))
    c.add("functions_equal", A, ("Layout.coalesce", A))
    c.add("functions_equal", A, B)
    c.add("check_compose", A, B)
    c.add("check_compose", A, B, A)  # a composite of the right size, mostly wrong
    c.add("check_complement", A)
    c.add("check_complement", A, lit(None), lit(a.size() * 2))
    c.add("check_complement", A, B)  # mostly no complement
    c.add("table_of", A, lit(a.size() - 1))


def edge_battery(c: Corpus, lk, gens, rng) -> None:
    """Entries at the 64-bit edge, values of the wrong type and deep nesting
    at every entry point."""
    for v in EDGE:
        V = lit(v)
        c.add("Layout", V, lit(1))
        c.add("Layout", lit(2), V)
        c.add("Layout.complement", ("Layout", lit((2, v)), lit((v, 1))))
        c.add("Layout.complement", ("Layout", lit(4), lit(1)), V)
        c.add("Layout.is_n_complementable", ("Layout", lit(2**62), lit(1)), V)
        c.add("Layout.compose", ("Layout", lit(4), lit(v)), ("Layout", lit(2**62), lit(2)))
        c.add("Layout.compose", ("Layout", lit(v), lit(1)), ("Layout", lit((2, 4)), lit((4, 1))))
        c.add("Layout.logical_divide", ("Layout", lit(2**62), lit(1)), ("Layout", lit(v), lit(2)))
        c.add("Layout.logical_product", ("Layout", lit(4), lit(1)), ("Layout", lit(v), lit(1)))
        c.add("Layout.__call__", ("Layout", lit(8), lit(2**60)), V)
        c.add("Layout.cosize", ("Layout", lit((v, 2)), lit((1, v))))
        c.add("FlatLayout", lit((v,)), lit((1,)))
        c.add("TupleMorphism", lit((v,)), lit((v,)), lit((1,)))
        c.add("TupleMorphism", lit((2,)), lit((2,)), lit((v,)))
        c.add("identity", lit((v, 2)))
        c.add("column_major", lit((4, v)))
        c.add("column_major_layout", lit((v, (2, 2))))
        c.add("mutual_refinement", lit((v,)), lit((2, v)))
        c.add("Refinement", lit((2, v)), lit(v))
        c.add("size", lit((2**62, v)))
        c.add("prefix_products", lit((v, 4)))
        c.add("colex_inv", lit((2**62, 4)), V)
        c.add("parse_layout", lit(f"({v},2):(1,{v})"))
        c.add("nest_morphism", lit((v, 2)), lit((2, v)), lit((2, 1)))
    # composites in range where a piece of b that no stride reads has a stride past 2^63-1,
    # b's overflowing mode its last or its first; and a b of size past 2^63-1 that compose
    # refuses, though the Nest-category route composes it
    for a, b in (
        ((2**30, 1), (2**40, 2**40)),
        ((2**30, 1), ((2**40, 4), (2**40, 1))),
        (((2**30, 4), (4, 1)), ((4, 2**40), (1, 2**40))),
        (((2, 4), (0, 4)), ((2**31, 2**27, 2**36, 8), (2, 2**37, 0, 0))),
    ):
        c.add("Layout.compose", ("Layout", *map(lit, a)), ("Layout", *map(lit, b)))
    # shape entries below 1 and past 2^63-1 where a shape enters as a plain tuple
    for v in EDGE:
        c.add("prefix_products", lit((2, v)))
        c.add("colex", lit((v, 2)), lit((0, 1)))
        c.add("colex_inv", lit((2, v)), lit(1))
    c.add("colex_inv", lit((0,)), lit(0))
    c.add("colex_inv", lit((2, -3)), lit(1))
    c.add("prefix_products", lit((-1, 2)))
    c.add("prefix_products", lit((0, 3)))
    for shape, stride in WIDE_EVAL:
        n = math.prod(shape)
        text = f"({','.join(map(str, shape))}):({','.join(map(str, stride))})"
        layouts = [(cls, lit(shape), lit(stride)) for cls in ("Layout", "FlatLayout")]
        for x in (0, 1, n // shape[-1] - 1, n - 1, 2**63 - 1, 2**63, n):
            coord = tuple(x // math.prod(shape[:i]) % s for i, s in enumerate(shape))
            c.add("colex_inv", lit(shape), lit(x))
            c.add("colex", lit(shape), lit(coord))
            for L in layouts:
                c.add(f"{L[0]}.__call__", L, lit(x))
                c.add(f"{L[0]}.eval_coord", L, lit(coord))
            c.cli(("eval", text, str(x)))
        for L in layouts:
            c.add(f"{L[0]}.cosize", L)
    for v in NOT_INT:
        V = lit(v)
        c.add("Layout.__call__", ("Layout", lit(4), lit(1)), V)
        c.add("Layout.eval_coord", ("Layout", lit((4, 2)), lit((1, 4))), lit((v, 1)))
        c.add("FlatLayout.eval_coord", ("FlatLayout", lit((4, 2)), lit((1, 4))), lit((1, v)))
        c.add("FlatLayout.restrict", ("FlatLayout", lit((2, 3)), lit((1, 2))), lit((v,)))
        c.add("FlatLayout.permute", ("FlatLayout", lit((2, 3)), lit((1, 2))), lit((v, 0)))
        c.add("colex", lit((4,)), lit((v,)))
        c.add("colex_inv", lit((4,)), V)
        c.add("prefix_products", lit((2, v)))
        c.add("colex", lit((v,)), lit((1,)))
        c.add("colex_inv", lit((v,)), lit(1))
        c.add("Layout", V, lit(1))
        c.add("Layout.complement", ("Layout", lit(4), lit(1)), V)
        c.add("TupleMorphism", lit((2,)), lit((2,)), lit((v,)))
        c.add("NestMorphism", lit((v,)), lit((2,)), ("identity", lit((2,))))
        c.add("Refinement", lit((2, v)), lit(4))
        c.add("size", lit((2, v)))
        c.add("refines", lit((2, v)), lit(4))
        c.add("refines", lit((2, 2)), lit((v,)))
        c.add("relative_modes", lit((2, v)), lit(4))
        c.add("mutual_refinement", lit((v,)), lit((4,)))
        c.add("exhaustive_complement_search", ("FlatLayout", lit((4,)), lit((1,))), V)
    c.add("size", lit([2, 3]))
    c.add("refines", lit([2, 2]), lit(4))
    c.add("relative_modes", lit([2, 2]), lit(4))
    for n in DEEP:
        D, D1 = ("deep", n, 2), ("deep", n, 1)
        for op in ("flatten", "profile", "length", "rank", "depth", "size", "format_nested"):
            c.add(op, D)
        c.add("congruent", D, D1)
        c.add("refines", D, lit(2))
        c.add("relative_modes", D, lit(2))
        c.add("Layout", D, D1)
        c.add("Layout.compose", ("Layout", D, D1), ("Layout", lit(4), lit(1)))
        c.add("column_major_layout", D)
        text = "(" * n + "2" + ")" * n + ":" + "(" * n + "1" + ")" * n
        c.add("parse_nested", lit("(" * n + "2" + ")" * n))
        c.add("parse_layout", lit(text))
        c.add("nest_morphism", D, lit((2,)), lit((1,)))
        c.add("mutual_refinement", D, lit((2,)))
        c.cli(("tractable", text))
        c.cli(("--json", "compose", text, "2:1"))
    # the edge entries inside generated layouts, as the predicate tests do
    for _ in range(40):
        flat = gens.random_tractable_flat(rng)
        shape, stride = list(flat.shape), list(flat.stride)
        if shape and rng.random() < 0.5:
            stride[rng.randrange(len(shape))] = rng.choice(EDGE)
        else:
            shape.append(rng.choice(EDGE))
            stride.append(rng.choice(EDGE))
        L = ("Layout", lit(tuple(shape)), lit(tuple(stride)))
        for name in ("coalesce", "complement", "is_tractable", "cosize", "is_compact"):
            c.add(f"Layout.{name}", L)
        c.add("Layout.complement", L, lit(rng.choice(EDGE)))
        c.add("Layout.compose", ("Layout", lit(4), lit(1)), L)
        c.add("Layout.compose", L, ("Layout", lit(2**62), lit(1)))
        c.add("standard_representation", ("Layout.flat", L))
        c.cli(("coalesce", f"({','.join(map(str, shape))}):({','.join(map(str, stride))})"))


def edge_pair_battery(c: Corpus, gens, pairs: int) -> None:
    """Compose, divide and product on pairs from the 64-bit-edge generator, whose sizes,
    cosizes and strides lie past 2^63-1 often enough that overflow refusals are compared
    text for text."""
    rng = c.edges
    for _ in range(pairs):
        A, B = _L(gens.random_edge_layout(rng, 2)), _L(gens.random_edge_layout(rng))
        for op in ("compose", "logical_divide", "logical_product"):
            c.add(f"Layout.{op}", A, B)


def table_battery(c: Corpus, flats: int) -> None:
    """Tables of flat layouts with extents up to 1,000, strides up to 2^50, zero strides and
    unit modes, up to 2^17 points, so tables past 64 KiB as well as small ones: each
    tabulated and compared with its coalesce and with its modes permuted, and that permuted
    form, right and with one stride off, checked as the layout after the permutation of its
    domain's modes."""
    rng = c.tables
    for _ in range(flats):
        shape, stride = [], []
        for _ in range(rng.randint(1, 5)):
            shape.append(rng.choice((1, 2, 3, 4, 7, 8, 16, 255, 257, 1000)))
            stride.append(rng.choice((0, 1, 2, 3, 5, 64, 4095, 2**20, 2**33, 2**50)))
        if math.prod(shape) > 1 << 17:
            continue
        order = list(range(len(shape)))
        rng.shuffle(order)
        F = ("FlatLayout", lit(tuple(shape)), lit(tuple(stride)))
        P = ("FlatLayout.permute", F, lit(tuple(order)))
        # the modes of F's domain in the permuted order: a bijection a with F∘a = P
        pre = [math.prod(shape[:i]) for i in range(len(shape))]
        a = ("FlatLayout", lit(tuple(shape[i] for i in order)), lit(tuple(pre[i] for i in order)))
        off = [stride[i] for i in order]
        off[-1] += 1
        c.add("table_of", F)
        c.add("functions_equal", F, ("FlatLayout.coalesce", F))
        c.add("functions_equal", F, P)
        c.add("check_compose", a, F, P)
        c.add("check_compose", a, F, ("FlatLayout", a[1], lit(tuple(off))))


def cute_reference_battery(
    c: Corpus, lk, gens, cute_reference, flats: int, edges: int, nested: int
) -> None:
    """Compose, complement, divide and product on pairs of tractable flat layouts, of
    64-bit-edge layouts and of tractable nested layouts, each recorded as whether the engine
    agrees with the symbolic CuTe reference wherever it answers (exactly, nesting included,
    but for a complement, by coalesce), and who answers where it refuses; then a pair with
    ``namedtuple`` nodes, which the reference builds as plain tuples."""
    rng = c.cute
    flat = [lk.Layout.of_flat(gens.random_tractable_flat(rng)) for _ in range(2 * flats)]
    pairs = list(zip(flat[::2], flat[1::2]))
    pairs += [(gens.random_edge_layout(rng, 2), gens.random_edge_layout(rng)) for _ in range(edges)]
    pairs += [(gens.random_layout(rng), gens.random_layout(rng)) for _ in range(nested)]
    for a, b in pairs:
        for op, second in cute_reference.operations(a, b):
            c.add("cute", lit(op), _L(a), lit(second) if op == "complement" else _L(b))
    a = ("Layout", ("Pair", lit(4), lit(8)), ("Pair", lit(1), lit(4)))
    for op in ("compose", "logical_divide", "logical_product"):
        c.add("cute", lit(op), a, ("Layout", lit(32), lit(1)))


def cli_battery(c: Corpus, clicases, seed: int) -> None:
    """Every verb: the bench's generated command lines of one seed, with its
    golden transcripts and refusals."""
    for argv, _, _ in clicases.build(random.Random(seed)):
        c.cli(argv)


def cli_fixed(c: Corpus, clicases, cli) -> None:
    """Each verb's help, nesting beyond the reader's bound, a render past
    the oracle's cap, operands at the edges or of the wrong form, and command
    lines with two faulty operands."""
    c.cli(("--help",))
    c.cli(())
    for verb, row in cli._VERBS.items():
        if row.help is not None:
            c.cli((verb, "--help"))
    c.cli(clicases.DEEP_ARGV)
    c.cli(clicases.OVERSIZED_RENDER)
    for v in EDGE:
        c.cli(("complement", "4:1", str(v)))
        c.cli(("eval", "(4,2):(1,4)", str(v)))
        c.cli(("compose", f"{v}:1", "(2,4):(4,1)"))
        c.cli(("coalesce", f"({v},2):(1,{v})"))
        c.cli(("layout-of", f"({v})--(1)-->({v})"))
        c.cli(("mutual-refine", f"({v})", f"(2,{v})"))
        c.cli(("check", "complement", "(2,2):(1,4)", str(v)))
    for text in ("2.5", "True", "0x4", "+4", "٤", " 4", "4 "):
        c.cli(("eval", "4:1", text))
        c.cli(("complement", "4:1", text))
        c.cli(("coalesce", f"({text},2):(1,4)"))
    for argv in (  # a domain-invalid operand ahead of a malformed one, or two malformed
        ("eval", "(0):(1)", "x"),
        ("coalesce-rel", "(0):(1)", "(2,"),
        ("compose", "(0):(1)", "("),
        ("compose", "(2)--(2)-->(2)", "(2)--(1)-->"),
        ("divide", "(0):(1)", "4:"),
        ("product", "(0):(1)", "4:1:"),
        ("check", "compose", "(0):(1)", "x"),
        ("complement", "(2,:(1)", "x"),
        ("check", "complement", "(2,:(1)", "x"),
    ):
        c.cli(argv)


def build_corpus(seed: int = 7, rounds: int = 100, cli_seeds: int = 8) -> list:
    """The calls, built with the ``layoutkit`` already importable: each round
    draws operands from every generator and runs every battery on them."""
    for path in (ROOT / "bench", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    # imported here, once the caller has put the tree to build with on the path
    import layoutkit as lk
    import layoutkit.cli as cli
    import clicases
    import cute_reference
    import generators as gens
    from gen import Gen
    from workloads import SMALL, WIDE

    c = Corpus(seed)
    rng = c.rng
    for name in ("STAR", "Nested", "Profile", "__version__"):
        c.add(name)
    for name, obj in vars(lk).items():
        if isinstance(obj, type) and issubclass(obj, (lk.LayoutError, lk.NotationError)):
            c.add(f"{name}.code" if hasattr(obj, "code") else f"{name}.__name__")
    c.add("exhaustive_complement_search", ("Layout", lit((2, 2)), lit((1, 4))), lit(16))
    c.add("exhaustive_complement_search", ("FlatLayout", lit((3,)), lit((2,))), lit(12))
    c.add("exhaustive_complement_search", ("Layout", lit(4), lit(1)), lit(2**30))
    # the oracle at each word width, against its neighbour in WIDTHS and against
    # the identity on its range, where that is a layout
    for (shape, stride), other in zip(WIDTHS, WIDTHS[1:] + WIDTHS[:1]):
        a, b = lk.Layout(shape, stride), lk.Layout(*other)
        oracle_battery(c, lk, a, b)
        c.add("FunctionTable.values", ("table_of", _L(a)))
        # the table against the table of the same function coalesced, and of its neighbour
        table = ("table_of", _L(a))
        c.add("FunctionTable.__eq__", table, ("table_of", ("Layout.coalesce", _L(a))))
        c.add("FunctionTable.__eq__", ("table_of", ("Layout.coalesce", _L(a))), table)
        c.add("FunctionTable.__eq__", table, ("table_of", _L(b)))
        c.add("FunctionTable.__hash__", table)
        c.add("FunctionTable.__eq__", ("pickled", table), table)
        c.add("FunctionTable.__repr__", ("pickled", table))
        c.add("FunctionTable.__repr__", table)
        c.add("check_complement", _L(a), ("Layout", lit(2), lit(1)))
        top = sum((s - 1) * d for s, d in zip(shape, stride))
        c.add("check_compose", _L(a), ("Layout", lit(top + 1), lit(1)), _L(a))
        c.add("check_compose", _L(a), ("Layout", lit(top + 1), lit(2**61)), _L(a))
    # one table of each word width, 1, 2, 4, 8 and 16 bytes, against the table of the same
    # flat layout: ==, hash, values and the pickle round trip, and its first and last points
    for shape, stride in (WIDTHS[i] for i in (0, 2, 4, 6, 7)):
        table = ("table_of", ("FlatLayout", lit(shape), lit(stride)))
        c.add("FunctionTable.__eq__", table, ("table_of", ("FlatLayout", lit(shape), lit(stride))))
        c.add("FunctionTable.__hash__", table)
        c.add("FunctionTable.__eq__", ("pickled", table), table)
        c.add("FunctionTable.values", ("pickled", table))
        c.add("FunctionTable.__getitem__", table, lit(0))
        c.add("FunctionTable.__getitem__", table, lit(math.prod(shape) - 1))
    # tables of a layout of one point, a repeated value, a value past the range and a
    # permutation
    for shape, stride in (((), ()), ((2, 2), (1, 1)), ((2,), (2,)), ((2, 2), (2, 1))):
        table = ("table_of", ("FlatLayout", lit(shape), lit(stride)))
        c.add("FunctionTable.is_bijection_onto_range", table)
        c.add("FunctionTable.__getitem__", table, lit(1))
    # check_compose under small caps: b gathered at a's values, b past the cap,
    # a point past b's domain before and after a differing point, a value past 2^63-1
    for a, b, comp in (
        (((8,), (1,)), ((8,), (3,)), ((8,), (3,))),
        (((4,), (3,)), ((64,), (2,)), ((4,), (6,))),
        (((4,), (3,)), ((64,), (2,)), ((4,), (7,))),
        (((4,), (2,)), ((4,), (1,)), ((2, 2), (2, 9))),
        (((4,), (2,)), ((4,), (1,)), ((4,), (1,))),
        (((3,), (1,)), ((3,), (2**62,)), ((3,), (2**62,))),
    ):
        for cap in (4, 8, 16):
            c.add("check_compose", *(("FlatLayout", lit(s), lit(d)) for s, d in (a, b, comp)), lit(cap))
    # b of 2,048 points past the cap under an a of 512, with the right composite and one
    # wrong from x = 256: at a cap of 64 a itself is past it, at 512 b is read point by point
    a, b = ("FlatLayout", lit((512,)), lit((3,))), ("FlatLayout", lit((2048,)), lit((2,)))
    for comp in (((512,), (6,)), ((256, 2), (6, 1537))):
        for cap in (64, 512):
            c.add("check_compose", a, b, ("FlatLayout", *map(lit, comp)), lit(cap))
    # caps that are not an int, on each entry that reads one
    a, b = ("FlatLayout", lit((4,)), lit((1,))), ("FlatLayout", lit((2,)), lit((4,)))
    for cap in (None, "8", True, 2.0):
        c.add("table_of", a, lit(cap))
        c.add("functions_equal", a, a, lit(cap))
        c.add("check_compose", a, a, a, lit(cap))
        c.add("check_complement", a, b, lit(None), lit(cap))
        c.add("exhaustive_complement_search", a, lit(8), lit(cap))
    # a given b with a size that is not an int; a composite of the wrong size, which
    # answers False before b's size, 2^64, is read
    for n in (4.0, True, "4"):
        c.add("check_complement", ("Layout", lit(2), lit(1)), ("Layout", lit(2), lit(2)), lit(n))
        c.add("check_complement", ("Layout", lit(1), lit(0)), ("Layout", lit(1), lit(0)), lit(n))
    wide = ("FlatLayout", lit((2**62, 4)), lit((1, 2**61)))
    c.add("check_compose", a, wide, ("FlatLayout", lit((2,)), lit((1,))))
    # the cap read before an answer of False on unequal sizes or a mismatched n
    for cap in (None, "8", 3, 8):
        c.add("functions_equal", a, b, lit(cap))
        c.add("check_complement", a, b, lit(9), lit(cap))
    # functions_equal on one size: largest values either side of a byte width (255 | 256)
    # and of a bit length (7 | 8), all-zero pairs, and tables just under, at and just over
    # 64 KiB, each against itself split in two and with its modes swapped
    for x, y in (
        (((2, 2), (1, 254)), ((2, 2), (1, 255))),
        (((2, 4), (1, 2)), ((2, 4), (2, 2))),
        (((2, 4), (1, 2)), ((4, 2), (2, 1))),
        (((8, 4), (0, 0)), ((32,), (0,))),
        (((4,), (0,)), ((4,), (1,))),
        (((2**15 - 2,), (2,)), ((2**14 - 1, 2), (2, 2**15 - 2))),
        (((2**14, 2), (2, 2**15)), ((2, 2**14), (2**15, 2))),
        (((2**15,), (2,)), ((2**14, 2), (2, 2**15))),
        (((2**15,), (3,)), ((2**14, 2), (3, 3 * 2**14))),
        (((2**14, 2), (3, 3 * 2**14)), ((2, 2**14), (3 * 2**14, 3))),
    ):
        x, y = ("FlatLayout", *map(lit, x)), ("FlatLayout", *map(lit, y))
        c.add("functions_equal", x, y)
        c.add("functions_equal", y, x)
    # a scalar, a set and a range where a flat sequence is read
    for v in (4, 2.5, None, {2, 3}, range(2, 4)):
        V = lit(v)
        c.add("prefix_products", V)
        c.add("colex", V, lit((1,)))
        c.add("colex", lit((4,)), V)
        c.add("colex_inv", V, lit(1))
        c.add("identity", V)
        c.add("column_major", V)
        c.add("substitute", V, lit((1,)))
        c.add("nest_morphism", lit((2,)), lit((2,)), V)
        c.add("Layout.eval_coord", ("Layout", lit(4), lit(1)), V)
        c.add("FlatLayout.eval_coord", ("FlatLayout", lit((2, 4)), lit((1, 2))), V)
    # the bijection on long odd modes and zero strides, and the searches that reach it
    for shape, stride in (
        ((4095,), (1,)), ((4093,), (1,)), ((3, 4093), (4093, 1)), ((255, 3), (3, 1)),
        ((4093, 2), (1, 0)), ((2, 5, 3), (0, 1, 5)), ((3,), (0,)),
    ):
        a, size = ("FlatLayout", lit(shape), lit(stride)), math.prod(shape)
        c.add("check_complement", a)
        c.add("check_complement", a, ("FlatLayout", lit((2,)), lit((size,))))
        c.add("check_complement", a, ("FlatLayout", lit((2, 3)), lit((0, size))))
        c.add("exhaustive_complement_search", a, lit(size * 3))
    c.add("exhaustive_complement_search", ("FlatLayout", lit((3,)), lit((1,))), lit(3 * 4093))
    # namedtuple nodes: each operation keeps its tree where no leaf is cut, and
    # nests plain tuples where one is; the shape's repr names the node's type
    x = ("Layout", ("Pair", lit(4), lit(8)), ("Pair", lit(1), lit(4)))
    y = ("Layout", ("Pair", lit(2), lit(16)), ("Pair", lit(1), lit(2)))
    z, w = ("Layout", lit(32), lit(1)), ("Layout", lit((2, 16)), lit((1, 4)))
    for a, b in ((x, z), (z, x), (x, w), (w, x), (x, y), (y, x)):
        for target in ("Layout.compose", "Layout.logical_divide", "Layout.logical_product"):
            c.add(target, a, b)
            c.add("Layout.shape", (target, a, b))
    for stride in (((1, 2), 4), ((1, 8), 4)):
        fine = ("Layout", lit(((2, 2), 8)), lit(stride))
        c.add("Layout.coalesce_relative", fine, ("Pair", lit(4), lit(8)))
        c.add("Layout.shape", ("Layout.coalesce_relative", fine, ("Pair", lit(4), lit(8))))
    small, wide = Gen(rng, SMALL), Gen(rng, WIDE)
    for r in range(rounds):
        for gen in (small, wide) if r % 2 else (small,):
            for kind in ("compose", "logical_divide", "logical_product"):
                (a, b), _ = gen.operands(kind)
                layout_battery(c, lk, a, b)
                composition_battery(c, lk, gens, a, b)
            (a, n), _ = gen.operands("complement")
            c.add("Layout.complement", _L(a), lit(n))
            c.add("check_complement", _L(a), lit(None), lit(n))
            (a, bar), _ = gen.operands("coalesce_relative")
            c.add("Layout.coalesce_relative", _L(a), lit(bar))
            # bar inside a 1-tuple, and beside a () or a 1 over a () of the shape
            c.add("Layout.coalesce_relative", _L(a), lit((bar,)))
            c.add("Layout.coalesce_relative", ("Layout", lit((a.shape,)), lit((a.stride,))), lit((bar,)))
            with_empty = ("Layout", lit((a.shape, ())), lit((a.stride, ())))
            c.add("Layout.coalesce_relative", with_empty, lit((bar, ())))
            c.add("Layout.coalesce_relative", with_empty, lit((bar, 1)))
            shapes_battery(c, lk, gen, a.shape, bar)
        a, b = gens.random_layout(rng), gens.random_layout(rng)
        layout_battery(c, lk, a, b)
        composition_battery(c, lk, gens, a, b)
        if a.size() <= 4096 and b.size() <= 4096:
            oracle_battery(c, lk, a, b)
        for f, g in (
            (gens.random_standard_morphism(rng), gens.random_standard_morphism(rng)),
            gens.random_composable_pair(rng),
            (gens.random_morphism(rng), gens.random_morphism(rng)),
            (gens.with_unit_entries(rng, gens.random_morphism(rng)), gens.random_morphism(rng)),
        ):
            morphism_battery(c, lk, gens, f, g)
        x, y = gens.random_nested_tuple(rng), gens.random_nested_tuple(rng)
        shapes_battery(c, lk, small, x, y)
    edge_battery(c, lk, gens, rng)
    edge_pair_battery(c, gens, 1000)
    table_battery(c, 400)
    cute_reference_battery(c, lk, gens, cute_reference, 1000, 500, 500)
    cli_fixed(c, clicases, cli)
    for s in range(cli_seeds):
        cli_battery(c, clicases, seed + s)
    return c.calls


# -- running it --------------------------------------------------------------------


def _build(lk, spec):
    tag = spec[0]
    if tag == "=":
        return spec[1]
    if tag == "deep":
        value = spec[2]
        for _ in range(spec[1]):
            value = (value,)
        return value
    args = [_build(lk, s) for s in spec[1:]]
    if tag == "[]":
        return args
    if tag == "Pair":
        return Pair(*args)
    if tag == "pickled":
        return pickle.loads(pickle.dumps(args[0]))
    return _call(lk, tag, args)


def _call(lk, target, args):
    obj = lk
    for part in target.split("."):
        if obj is not lk and not hasattr(obj, part):  # a field the class does not name
            return getattr(args[0], part)
        obj = getattr(obj, part)
    if isinstance(obj, (property, types.MemberDescriptorType)):  # a property or a slot
        return obj.__get__(*args)
    return obj(*args) if args else obj  # a name with no arguments is read


def _deep_repr(value) -> str:
    """``repr(value)``, each tuple and list opened on this function's own stack, so that a
    tree too deep for ``repr`` is written whole; anything else is written by ``repr``."""
    out, stack = [], [(enumerate((value,)), "")]
    while stack:
        for i, c in stack[-1][0]:
            if i:
                out.append(", ")
            if type(c) in (tuple, list):
                out.append("(" if type(c) is tuple else "[")
                close = "]" if type(c) is list else ",)" if len(c) == 1 else ")"
                stack.append((enumerate(c), close))
                break
            out.append(repr(c))
        else:
            out.append(stack.pop()[1])
    return "".join(out)


def _text(value) -> str:
    try:
        text = repr(value)
    except RecursionError:
        text = _deep_repr(value)
    if len(text) > KEEP:
        text = text[:KEEP] + "...#" + hashlib.sha1(text.encode()).hexdigest()[:12]
    return text


def run_corpus(calls) -> list:
    """The outcome of each call, with the ``layoutkit`` already importable."""
    import cute_reference
    import layoutkit as lk
    from layoutkit.cli import main

    outcomes = []
    for target, args in calls:
        if target == "cute":
            outcomes.append(cute_reference.agreement(*[_build(lk, s) for s in args]))
            continue
        if target == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(args[0]))
                except Exception as exc:  # the CLI's error contract is broken
                    code = f"{type(exc).__name__}: {exc}"
            outcomes.append(f"exit {code}\nstdout {out.getvalue()!r}\nstderr {err.getvalue()!r}")
            continue
        try:
            outcomes.append(_text(_call(lk, target, [_build(lk, s) for s in args])))
        except Exception as exc:
            outcomes.append(_text(f"{type(exc).__name__}: {exc}"))
    return outcomes


def _describe(spec) -> str:
    tag = spec[0]
    if tag == "=":
        return repr(spec[1])
    if tag == "deep":
        return f"<{spec[2]!r} nested {spec[1]} deep>"
    inner = ", ".join(_describe(s) for s in spec[1:])
    return f"[{inner}]" if tag == "[]" else f"{tag}({inner})"


def describe(call) -> str:
    target, args = call
    text = " ".join(args[0]) if target == "cli" else _describe((target, *args))
    text = f"cli: {text}" if target == "cli" else text
    return text if len(text) <= 300 else text[:300] + "..."


def _worker(src: str, corpus_path: str, out_path: str) -> None:
    sys.path.insert(0, src)
    import layoutkit

    if Path(layoutkit.__file__).parent.parent != Path(src):
        raise SystemExit(f"imported {layoutkit.__file__}, not the package in {src}")
    sys.path.append(str(ROOT / "tests"))  # the CuTe reference, which reads this layoutkit
    with open(corpus_path, "rb") as fh:
        calls = pickle.load(fh)
    outcomes = run_corpus(calls)
    with open(out_path, "wb") as fh:
        pickle.dump(outcomes, fh)


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "--worker":
        _worker(*argv[1:])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    parent, change = (str(Path(p).resolve()) for p in argv)
    for src in (parent, change):
        if not (Path(src) / "layoutkit" / "__init__.py").is_file():
            print(f"no layoutkit package in {src}", file=sys.stderr)
            return 2
    start = time.perf_counter()
    sys.path.insert(0, parent)
    calls = build_corpus()
    built = time.perf_counter() - start
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.pickle")
        with open(corpus_path, "wb") as fh:
            pickle.dump(calls, fh)
        workers, elapsed = [], []
        for i, src in enumerate((parent, change)):
            out_path = os.path.join(tmp, f"outcomes{i}.pickle")
            argv_w = [sys.executable, __file__, "--worker", src, corpus_path, out_path]
            workers.append((subprocess.Popen(argv_w, env=env), out_path, time.perf_counter()))
        results = []
        for proc, out_path, t0 in workers:
            if proc.wait() != 0:
                print(f"worker for {out_path} exited {proc.returncode}", file=sys.stderr)
                return 2
            elapsed.append(time.perf_counter() - t0)
            with open(out_path, "rb") as fh:
                results.append(pickle.load(fh))
    before, after = results
    differ = [i for i, (p, q) in enumerate(zip(before, after)) if p != q]
    ncli = sum(1 for target, _ in calls if target == "cli")
    wrong = [i for i, (t, _) in enumerate(calls) if t == "cute" and after[i].startswith("disagree")]
    print(
        f"differential: {len(calls):,} outcomes ({len(calls) - ncli:,} library, "
        f"{ncli:,} CLI), {len(differ):,} differ, {len(wrong):,} disagree with the CuTe "
        f"reference; corpus {built:.1f} s, parent {elapsed[0]:.1f} s, change {elapsed[1]:.1f} s"
    )
    for i in differ:
        print(f"\n#{i} {describe(calls[i])}\n  parent: {before[i]}\n  change: {after[i]}")
    for i in wrong:
        print(f"\n#{i} {describe(calls[i])}\n  change: {after[i]}")
    return 1 if differ or wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
