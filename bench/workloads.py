"""The benchmark's four workloads: inputs, the operation each input runs,
its traced form, and the untimed check of its result.

Each workload is a pool of items built from the seed during set-up.  The
timed loop is closed: one caller, one thread, the next item starts when the
previous one returns, cycling through the pool, so every workload runs
each input many times: layoutkit keeps no cache today, but a cache would
speed up every workload here without showing what it does for fresh
inputs.  The share of repeated operations is printed and recorded with the
other input properties.

Every algebra and oracle item says what it must end in: ``OK`` (built to be
accepted), ``REFUSED`` (a worked refusal), or None (an independently drawn
operand tuple, which the engine may accept or refuse).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional

import layoutkit
from layoutkit import FlatLayout, Layout, LayoutError, depth, flatten

import checks
import clicases
from gen import Gen, Spec
from spans import Tracer
from stages import staged_compose, staged_divide, staged_product


OK, REFUSED, ERROR = "ok", "refused", "error"


class Item(NamedTuple):
    kind: str  # the operation
    args: tuple
    tag: str  # "generated", or where a verbatim example comes from
    expect: object = None  # OK, REFUSED or None; cli-mix: clicases.Expect


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], List[Item]]
    op: Callable[[Item], object]
    traced_op: Callable[[Tracer, Item], object]
    #: returns None when the result is right, else what is wrong
    verify: Callable[[Item, object], Optional[str]]
    #: items the traced run's layer probe covers, from the start of the pool
    probe_items: int


# -- algebra-small / algebra-wide --------------------------------------------

SMALL = Spec(
    nonunit=(1, 5), entries=(1, 6), depth=(0, 2), max_size=4096,
    palette=(2, 2, 2, 2, 3, 4, 5, 8), broadcasts=1, product_max=64,
)
WIDE = Spec(
    nonunit=(6, 10), entries=(12, 24), depth=(3, 5), max_size=1024,
    palette=(2, 2, 2, 2, 3, 4), broadcasts=2, product_max=64,
)

#: operation weights; the cheap operations stay under a third, so the median
#: latency falls inside the dense band of compositions, not in the gap
#: between the cheap and the composing operations
ALGEBRA_MIX = (
    ("compose", 8), ("logical_divide", 4), ("logical_product", 4),
    ("complement", 2), ("coalesce", 2), ("coalesce_relative", 2),
)


def _L(text: str) -> Layout:
    return layoutkit.parse_layout(text)


#: the README and acceptance-test worked examples, verbatim
WORKED = [
    Item("compose", (_L("((4,4),4):((16,1),4)"), _L("(8,64):(64,1)")), "readme", OK),
    Item("logical_divide", (_L("(64,32):(32,1)"), _L("(4,4):(1,64)")), "readme", OK),
    Item("complement", (_L("((16,4),64):((1,16),64)"), 8192), "readme", OK),
    Item("compose", (_L("(4):(1)"), _L("(2,2):(2,1)")), "test_acceptance", OK),
    Item("compose", (_L("(6,6):(6,1)"), _L("(12,3,6):(1,72,12)")), "test_acceptance", OK),
    Item("compose", (_L("(8,8):(8,1)"), _L("(16,16):(16,1)")), "test_acceptance", OK),
    Item("compose", (_L("(16,16):(16,1)"), _L("(8,8,8):(64,8,1)")), "test_acceptance", OK),
    Item("compose", (_L("(6,6):(5,60)"), _L("(10,360):(2,60)")), "test_acceptance", OK),
    Item("logical_divide", (_L("(8,8):(8,1)"), _L("(2,2):(1,4)")), "test_acceptance", OK),
    Item("logical_product", (_L("(2,2):(1,2)"), _L("(5,5):(5,1)")), "test_acceptance", OK),
    Item("coalesce", (_L("((2,2),(2,2),(5,5)):((1,2),(16,32),(64,640))"),), "test_acceptance", OK),
    Item("coalesce_relative", (_L("((2,2),(3,3),(5,5)):((1,2),(4,12),(36,180))"), ((2, 2), 9, 25)), "test_acceptance", OK),
    Item("complement", (_L("((2,2),(2,2)):((8,2),(64,256))"), 4096), "test_acceptance", OK),
    Item("logical_product", (_L("(3,10,10):(200,1,20)"), _L("(2,2):(1,2)")), "test_acceptance", OK),
    Item("compose", (_L("64:1"), _L("(3,3):(3,1)")), "test_cli", REFUSED),
    Item("complement", (_L("(2,2):(3,4)"), None), "test_cli", REFUSED),
]


def _algebra_pool(spec: Spec, count: int, worked: List[Item]):
    def build(rng: random.Random) -> List[Item]:
        g = Gen(rng, spec)
        weight = sum(w for _, w in ALGEBRA_MIX)
        items = list(worked)
        for kind, w in ALGEBRA_MIX:
            for _ in range(count * w // weight):
                args, constructed = g.operands(kind)
                items.append(Item(kind, args, "generated", OK if constructed else None))
        rng.shuffle(items)
        return items

    return build


def algebra_verify(item: Item, r) -> Optional[str]:
    return checks.layout_op(item.kind, item.args, r)


def algebra_op(item: Item):
    a = item.args[0]
    return getattr(a, item.kind)(*item.args[1:])


_STAGED = {"compose": staged_compose, "logical_divide": staged_divide, "logical_product": staged_product}


def algebra_traced(t: Tracer, item: Item):
    a, *rest = item.args
    if item.kind in _STAGED:
        return t.call("bench.staged_" + item.kind, _STAGED[item.kind], t, a, *rest)
    return t.call("layout." + item.kind, getattr(a, item.kind), *rest)


# -- oracle-verify ----------------------------------------------------------

#: oracle calls, their weights, and the size ladders (log2 of points) of
#: what each call checks; three sizes per call keep every size class large,
#: so the tail percentiles fall inside a class, not on its few largest items
ORACLE_MIX = (
    ("table_of", 3, (10, 12, 14)),
    ("functions_equal", 2, (10, 12, 14)),
    ("check_complement", 2, (10, 12, 14)),
    ("check_compose", 2, (7, 8, 9)),
    ("exhaustive_complement_search", 1, (4, 5, 6)),
)
#: powers of two only, and enough modes to reach any ladder size exactly
ORACLE_SPEC = Spec(
    nonunit=(16, 16), entries=(2, 8), depth=(1, 3), max_size=1 << 14,
    palette=(2, 4, 8), broadcasts=1, product_max=64,
)


def _oracle_args(g: Gen, kind: str, e: int):
    """Operands for one oracle call on 2**e points, whose layouts are
    engine results."""
    g.spec = replace(ORACLE_SPEC, max_size=1 << e)
    while True:
        try:
            if kind == "table_of":
                a, t = g.logical_divide()
                return (a.logical_divide(t),)
            if kind == "functions_equal":
                a = g.layout()
                return (a, a.coalesce())
            if kind == "check_complement":
                # gaps keep the offset range within 4x the size, so a layout
                # of 2**(e-2) points has a complement filling 2**e
                a = g.layout(broadcast=False, max_size=1 << (e - 2))
                return (a, a.complement(1 << e), 1 << e)
            if kind == "check_compose":
                g.spec = replace(ORACLE_SPEC, max_size=1 << (e + 2))
                b = g.layout()
                a = g.over(b, 1.0, broadcast=False, max_size=1 << e)
                if a.size() == 1 << e:
                    return (a, b, a.compose(b))
            else:
                a = g.layout(broadcast=False, max_size=1 << (e - 2))
                a.complement(1 << e)  # draw again unless 2**e-complementable
                return (a.flat(), 1 << e)
        except LayoutError:
            pass  # an unrelated pair the engine refuses: draw again


def oracle_build(rng: random.Random) -> List[Item]:
    g = Gen(rng, ORACLE_SPEC)
    items = []
    for kind, w, ladder in ORACLE_MIX:
        for i in range(32 * w):
            items.append(Item(kind, _oracle_args(g, kind, ladder[i % len(ladder)]), "generated", OK))
    rng.shuffle(items)
    return items


def oracle_op(item: Item):
    return getattr(layoutkit, item.kind)(*item.args)


def oracle_traced(t: Tracer, item: Item):
    return t.call("oracle." + item.kind, getattr(layoutkit, item.kind), *item.args)


def oracle_verify(item: Item, r) -> Optional[str]:
    if item.kind == "table_of":
        (l,) = item.args
        flat = l.flat()
        step = max(1, r.size // 64)
        if r.size != flat.size() or any(r[x] != flat(x) for x in range(0, r.size, step)):
            return f"table_of({l}) disagrees with pointwise evaluation"
        return None
    if item.kind == "exhaustive_complement_search":
        flat, n = item.args
        want = [flat.complement(n)]
        return None if r == want else f"search found {r}, engine complement is {want}"
    return None if r is True else f"{item.kind} rejected an engine result {item.args[-1]}"


# -- cli-mix -------------------------------------------------------------------


def cli_build(rng: random.Random) -> List[Item]:
    return [Item("cli", argv, tag, expect) for argv, tag, expect in clicases.build(rng)]


def cli_op(item: Item):
    return clicases.run_main(item.args)


def cli_traced(t: Tracer, item: Item):
    return t.call("cli.main", clicases.run_main, item.args)


def cli_verify(item: Item, r) -> Optional[str]:
    return clicases.verify(item.args, item.expect, r)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "algebra-small",
            "README-scale layouts (<= 6 entries, depth <= 2): fixed per-call "
            "overhead of Layout construction, re-flattening and validation "
            "dominates; inputs repeat (cycled pool)",
            _algebra_pool(SMALL, 1024, WORKED), algebra_op, algebra_traced, algebra_verify,
            probe_items=300,
        ),
        Workload(
            "algebra-wide",
            "12-24 entries, depth 3-5: per-entry tree work in the engine "
            "dominates, so per-call and per-entry costs trade off against "
            "algebra-small; inputs repeat (cycled pool)",
            _algebra_pool(WIDE, 768, []), algebra_op, algebra_traced, algebra_verify,
            probe_items=150,
        ),
        Workload(
            "oracle-verify",
            "oracle calls on engine results computed in set-up: the cost of "
            "every verification, with no engine work in the timed phase; "
            "inputs repeat (cycled pool)",
            oracle_build, oracle_op, oracle_traced, oracle_verify,
            probe_items=120,
        ),
        Workload(
            "cli-mix",
            "in-process CLI over all verbs, text layouts and morphisms, with "
            "exit-1 and exit-2 inputs: the only workload where parsing and the "
            "command-line front end do the work; inputs repeat (cycled pool)",
            cli_build, cli_op, cli_traced, cli_verify,
            probe_items=500,
        ),
    )
}


def profile(items: List[Item]) -> Dict[str, object]:
    """Shares of the input properties an optimisation might target."""
    n = len(items)
    kinds: Dict[str, int] = {}
    entries: Dict[int, int] = {}
    depths: Dict[int, int] = {}
    sizes: Dict[str, int] = {}
    expects: Dict[str, int] = {}
    for it in items:
        key = it.kind
        if it.kind == "cli":
            key = next((a for a in it.args if not a.startswith("--")), "")
            outcome = f"exit {it.expect.code}"
        else:
            outcome = it.expect or "either"
        kinds[key] = kinds.get(key, 0) + 1
        expects[outcome] = expects.get(outcome, 0) + 1
        first = it.args[0]
        if isinstance(first, FlatLayout):
            first = Layout.of_flat(first)
        if isinstance(first, Layout):
            e = len(flatten(first.shape))
            entries[e] = entries.get(e, 0) + 1
            d = depth(first.shape)
            depths[d] = depths.get(d, 0) + 1
            bucket = f"2^{max(first.size(), 1).bit_length() - 1}"
            sizes[bucket] = sizes.get(bucket, 0) + 1

    def share(d):
        return {str(k): round(v / n, 4) for k, v in sorted(d.items())}

    return {
        "items": n,
        "op": share(kinds),
        "expect": share(expects),
        "flat_entries": share(entries),
        "depth": share(depths),
        "size": share(sizes),
        "verbatim_examples": sum(1 for it in items if it.tag != "generated"),
    }
