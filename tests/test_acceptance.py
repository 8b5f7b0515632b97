"""Acceptance suite: golden transcripts, the demos' stored output, worked
examples, oracle equivalence at scale, correspondence round trips,
functoriality, mutual-refinement soundness, and the admissibility
implication."""

import random
import runpy
import time
from pathlib import Path

import pytest

from layoutkit import (
    FlatLayout,
    Layout,
    NotComposableError,
    check_complement,
    check_compose,
    concat_layouts,
    divides,
    exhaustive_complement_search,
    flatten,
    functions_equal,
    is_admissible_for_composition,
    layout_of,
    mutual_refinement,
    parse_layout,
    prefix_products,
    realize,
    refines,
    standard_representation,
    table_of,
)
from layoutkit.cli import main
from layoutkit.tuplecat import compose_morphisms

from generators import (
    non_degenerate,
    random_composable_pair,
    random_layout,
    random_nested_tuple,
    random_standard_morphism,
    random_tractable_flat,
)

SEED = 20260823


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.rstrip("\n")
    return code, out


GOLDEN = [
    (("compose", "((4,4),4):((16,1),4)", "(8,64):(64,1)"),
     "((4,4),(2,2)):((2,64),(256,1))"),
    (("coalesce", "((2,2),(2,2),(5,5)):((1,2),(16,32),(64,640))"),
     "(4,20,5):(1,16,640)"),
    (("coalesce-rel", "((2,2),(3,3),(5,5)):((1,2),(4,12),(36,180))",
      "((2,2),9,25)"),
     "((2,2),9,25):((1,2),4,36)"),
    (("complement", "((2,2),(2,2)):((8,2),(64,256))", "4096"),
     "(2,2,4,2,8):(1,4,16,128,512)"),
    (("divide", "(64,32):(32,1)", "(4,4):(1,64)"),
     "((4,4),(16,8)):((32,1),(128,4))"),
    (("product", "(3,10,10):(200,1,20)", "(2,2):(1,2)"),
     "((3,10,10),(2,2)):((200,1,20),(10,600))"),
    (("tractable", "(2,2,2):(1,2,4)"), "true"),
    (("tractable", "(2,2,2):(1,7,4)"), "false"),
    (("morphism", "(2,2,2):(1,2,4)"), "(2,2,2)--(1,2,3)-->(2,2,2)"),
    (("layout-of", "((5,5),8)--(1,3,2)-->(5,8,5)"), "((5,5),8):((1,40),5)"),
    (("compose", "((2,2),(2,2))--(3,2,6,5)-->((2,2,2),(2,2,2))",
      "((2,2,2),(2,2,2))--(1,0,2,0,3,4)-->(2,2,2,2)"),
     "((2,2),(2,2))--(2,0,4,3)-->(2,2,2,2)"),
    (("coalesce", "(2,2,10,10)--(1,2,4,5)-->(2,2,2,10,10)"),
     "(4,100)--(1,3)-->(4,2,100)"),
    (("complement", "(2,2)--(1,3)-->(2,5,2,5)"), "(5,5)--(2,4)-->(2,5,2,5)"),
    (("divide", "(4,8,4,8)--(1,2,3,4)-->(4,8,4,8)", "(4,4)--(1,3)-->(4,8,4,8)"),
     "((4,4),(8,8))--(1,3,2,4)-->(4,8,4,8)"),
    (("product", "(2,2)--(1,2)-->(2,2,5,5)", "(5,5)--(2,1)-->(5,5)"),
     "((2,2),(5,5))--(1,2,4,3)-->(2,2,5,5)"),
]


class TestCriterion1Golden:
    def test_transcripts_byte_exact_under_one_second(self, capsys):
        start = time.monotonic()
        for argv, expected in GOLDEN:
            code, out = run_cli(capsys, *argv)
            assert (code, out) == (0, expected), argv
        assert time.monotonic() - start < 1.0


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_prints_its_stored_output(capsys, demo):
    # tests/demo_output/<demo>.txt holds the stdout each demo printed when
    # it was stored; a demo must keep printing exactly that
    runpy.run_path(str(demo), run_name="__main__")
    stored = Path(__file__).parent / "demo_output" / f"{demo.stem}.txt"
    assert capsys.readouterr().out.encode() == stored.read_bytes()


class TestCriterion2WorkedExamples:
    COMPOSITIONS = [
        ("(4):(1)", "(2,2):(2,1)", "((2,2)):((2,1))"),
        ("(6,6):(6,1)", "(12,3,6):(1,72,12)", "((2,3),6):((6,72),1)"),
        ("(8,8):(8,1)", "(16,16):(16,1)", "((2,4),8):((128,1),16)"),
        ("(16,16):(16,1)", "(8,8,8):(64,8,1)", "((4,4),(8,2)):((16,1),(64,8))"),
        ("(6,6):(5,60)", "(10,360):(2,60)", "((2,3),6):((10,60),360)"),
    ]

    def test_compositions(self, capsys):
        start = time.monotonic()
        for a, b, expected in self.COMPOSITIONS:
            assert run_cli(capsys, "compose", a, b) == (0, expected)
        assert time.monotonic() - start < 1.0

    def test_division_example(self):
        # a logical divide only re-indexes a, so the quotient has size(a) = 64.
        # An earlier expected value, ((2,2),(2,2)):((8,32),(16,1)), has size
        # 16: it is a composed with (b, complement(b, 16)), the complement
        # taken in 16 instead of in size(a), and covers 4 of the 16 tiles
        a = Layout((8, 8), (8, 1))
        b = Layout((2, 2), (1, 4))
        q = a.logical_divide(b)
        assert q.size() == a.size()
        assert q == Layout(((2, 2), (2, 8)), ((8, 32), (16, 1)))

    def test_division_example_definitional(self):
        # complement((2,2):(1,4), 64) is (2,8):(2,8), so the second mode of
        # the quotient has shape (2,8); the result is verified pointwise
        a = Layout((8, 8), (8, 1))
        b = Layout((2, 2), (1, 4))
        q = a.logical_divide(b)
        assert q.size() == a.size()
        assert q == Layout(((2, 2), (2, 8)), ((8, 32), (16, 1)))
        assert b.complement(a.size()) == Layout((2, 8), (2, 8))
        tiled = Layout(
            (b.shape, b.complement(a.size()).shape),
            (b.stride, b.complement(a.size()).stride),
        )
        assert check_compose(tiled, a, q)

    def test_product_example(self):
        a = Layout((2, 2), (1, 2))
        b = Layout((5, 5), (5, 1))
        p = a.logical_product(b)
        assert p.size() == a.size() * b.size()
        assert p == Layout(((2, 2), (5, 5)), ((1, 2), (20, 4)))


#: CuTe's documented examples as (verb, operands, result).  CuTe's
#: composition(A, B) is A ∘ B, x ↦ A(B(x)), so it is ``compose B A`` here
CUTE = [
    ("compose", ("(4,3):(3,1)", "(6,2):(8,2)"), "((2,2),3):((24,2),8)"),
    ("compose", ("(5,4):(4,1)", "20:2"), "(5,4):(8,2)"),
    ("compose", ("(5,4):(1,5)", "(10,2):(16,4)"), "(5,(2,2)):(16,(80,4))"),
    ("complement", ("4:1", "24"), "6:4"),
    ("complement", ("6:4", "24"), "4:1"),
    ("complement", ("4:2", "24"), "(2,3):(1,8)"),
    ("complement", ("(2,4):(1,6)", "24"), "3:2"),
    ("complement", ("(2,2):(1,6)", "24"), "(3,2):(2,12)"),
    ("complement", ("(4,6):(1,4)", "24"), "1:0"),
    ("divide", ("(4,2,3):(2,1,8)", "4:2"), "((2,2),(2,3)):((4,1),(2,8))"),
    ("product", ("(2,2):(4,1)", "6:1"), "((2,2),(2,3)):((4,1),(2,8))"),
]


@pytest.mark.parametrize(
    "verb, operands, result", CUTE, ids=[" ".join((verb, *ops)) for verb, ops, _ in CUTE]
)
def test_cute_documented_examples(capsys, verb, operands, result):
    """The worked examples of CuTe's layout-algebra documentation (NVIDIA/cutlass,
    media/docs/cute/02_layout_algebra.md), text for text through the library and
    the CLI.  The entries were recalled from the documentation, not copied, so the
    oracle confirms each one too: a composite by its tables, a complement as a
    bijection, and a divide and a product against their definitions, A ∘ (B, B*)
    and (A, A* ∘ B)."""
    assert run_cli(capsys, verb, *operands) == (0, result)
    a, r = parse_layout(operands[0]), parse_layout(result)
    if verb == "complement":
        n = int(operands[1])
        assert str(a.complement(n)) == result and check_complement(a, r, n)
        return
    b = parse_layout(operands[1])
    if verb == "compose":
        assert str(a.compose(b)) == result and check_compose(a, b, r)
    elif verb == "divide":
        assert str(a.logical_divide(b)) == result
        tiler = b.complement(a.size())
        assert check_complement(b, tiler, a.size())
        assert check_compose(concat_layouts([b, tiler]), a, r)
    else:
        assert str(a.logical_product(b)) == result
        n = a.size() * b.cosize()
        rest = a.complement(n)
        assert check_complement(a, rest, n) and check_compose(b, rest, b.compose(rest))
        assert functions_equal(r, concat_layouts([a, b.compose(rest)]))


class TestCriterion3OracleEquivalence:
    def test_corpus(self):
        start = time.monotonic()
        rng = random.Random(SEED)
        corpus = [random_layout(rng, max_extent=1024) for _ in range(10_000)]
        assert all(l.size() <= 4096 and l.is_tractable() for l in corpus)

        # (a) coalesce preserves the layout function pointwise
        for l in corpus:
            assert table_of(l.coalesce()).values == table_of(l).values

        # (b) the engine's composite of every composable pair found
        composable = 0
        for a, b in zip(corpus, corpus[1:]):
            try:
                c = a.compose(b)
            except NotComposableError:
                continue
            composable += 1
            assert check_compose(a, b, c), (a, b)
        assert composable >= 100

        # (c) complements check out and the exhaustive search finds exactly
        # the engine's complement
        searched = 0
        for l in corpus:
            flat = l.flat()
            if not flat.is_complementable():
                continue
            srt = flat.squeeze().sort()
            n = srt.shape[-1] * srt.stride[-1] if srt.rank else 1
            assert flat.is_n_complementable(n)
            comp = flat.complement(n)
            assert check_complement(flat, comp, n=n), l
            assert exhaustive_complement_search(flat, n) == [comp], l
            searched += 1
        assert searched >= 100

        assert time.monotonic() - start < 300.0


class TestCriterion4RoundTrips:
    def test_layout_to_morphism_to_layout(self):
        rng = random.Random(SEED + 1)
        for _ in range(1000):
            l = non_degenerate(random_tractable_flat(rng))
            assert layout_of(standard_representation(l)) == l

    def test_morphism_to_layout_to_morphism(self):
        rng = random.Random(SEED + 2)
        for _ in range(1000):
            f = random_standard_morphism(rng)
            assert f.is_standard_form() and f.is_non_degenerate()
            assert standard_representation(layout_of(f)) == f


class TestCriterion5Functoriality:
    def test_realize_and_layout_functorial(self):
        rng = random.Random(SEED + 3)
        for _ in range(1000):
            f, g = random_composable_pair(rng)
            gf = compose_morphisms(f, g)
            rf, rg = realize(f), realize(g)
            assert realize(gf) == [rg[x] for x in rf]
            lf = Layout.of_flat(layout_of(f))
            lg = Layout.of_flat(layout_of(g))
            assert Layout.of_flat(layout_of(gf)) == lf.compose(lg), (f, g)


class TestCriterion6MutualRefinement:
    def test_known_failure(self):
        assert mutual_refinement((8, 8), (3, 8, 8)) is None

    def test_soundness_and_prefix_product_lemma(self):
        rng = random.Random(SEED + 4)
        successes = 0
        for _ in range(3000):
            t, u = random_nested_tuple(rng), random_nested_tuple(rng)
            mr = mutual_refinement(t, u)
            if mr is None:
                continue
            successes += 1
            assert refines(mr.t_ref.fine, t)
            assert refines(mr.u_ref.fine, u)
            assert divides(mr.t_ref.fine, mr.u_ref.fine)
            # every pair of prefix products is ordered or divisibility-related
            for tp in prefix_products(flatten(t)):
                for up in prefix_products(flatten(u)):
                    assert tp > up or up % tp == 0, (t, u, tp, up)
        assert successes >= 500


class TestCriterion7Admissibility:
    def test_mutual_refinement_implies_admissible(self):
        rng = random.Random(SEED + 5)
        hits = 0
        attempts = 0
        while hits < 500:
            attempts += 1
            assert attempts < 50_000, "not enough mutually-refinable pairs"
            a = random_tractable_flat(
                rng, allow_zero=False, allow_unit=False, shuffle=False, min_chain=1
            )
            if a.rank == 0:
                continue
            b = random_tractable_flat(rng).coalesce()
            f = standard_representation(a)
            g = standard_representation(b)
            if mutual_refinement(f.codomain, g.domain) is None:
                continue
            hits += 1
            assert is_admissible_for_composition(a, b), (a, b)

    def test_admissible_iff_refinable_iff_composable(self):
        # where cosize(a) <= size(b) the three answers agree both ways: the
        # greedy mutual refinement refuses exactly the non-admissible pairs
        rng = random.Random(SEED + 6)
        accepted = refused = 0
        while accepted + refused < 2000:
            a = random_tractable_flat(
                rng,
                allow_zero=False,
                allow_unit=False,
                shuffle=rng.random() < 0.5,
                min_chain=1,
            )
            b = random_tractable_flat(rng).coalesce()
            if a.cosize() > b.size():
                continue
            admissible = is_admissible_for_composition(a, b)
            refinable = (
                mutual_refinement(
                    standard_representation(a).codomain,
                    standard_representation(b).domain,
                )
                is not None
            )
            try:
                Layout.of_flat(a).compose(Layout.of_flat(b))
                composable = True
            except NotComposableError:
                composable = False
            assert admissible == refinable == composable, (a, b)
            accepted += composable
            refused += not composable
        assert accepted >= 500 and refused >= 500

    def test_a_degenerate_first_operand_is_read_squeezed(self):
        # an a with unit modes or zero strides, which the criterion refuses,
        # is read without them: where cosize(a) <= size(b), the squeezed,
        # zero-filtered a is admissible for the coalesced b exactly when the
        # layouts compose
        rng = random.Random(SEED + 7)
        accepted = refused = degenerate = 0
        while accepted + refused < 2000:
            a, b = random_tractable_flat(rng), random_tractable_flat(rng)
            if a.cosize() > b.size():
                continue
            degenerate += 1 in a.shape or 0 in a.stride
            admissible = is_admissible_for_composition(a.squeeze().filter_zeros(), b.coalesce())
            try:
                Layout.of_flat(a).compose(Layout.of_flat(b))
                composable = True
            except NotComposableError:
                composable = False
            assert admissible == composable, (a, b)
            accepted += composable
            refused += not composable
        assert accepted >= 500 and refused >= 500 and degenerate >= 1000
