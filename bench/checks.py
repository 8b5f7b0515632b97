"""Untimed checks of engine results against the oracle.

Compositions go through ``check_compose`` and complements through
``check_complement``.  Coalesce, divide and product results are compared
by table with the layout their definition gives, built from tables of the
operands only, so no engine composition enters the expected value.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from layoutkit import (
    FlatLayout,
    Layout,
    check_complement,
    check_compose,
    concat_layouts,
    flatten,
    refines,
    table_of,
)


def definitional_divide(a: Layout, tiler: Layout) -> Tuple[Tuple[int, ...], Optional[str]]:
    """The table of a ∘ (tiler, complement(tiler, size(a))), after checking
    the complement pointwise."""
    comp = tiler.complement(a.size())
    if not check_complement(tiler, comp, n=a.size()):
        return (), f"complement {comp} of tiler is wrong"
    ta = table_of(a).values
    return tuple(ta[x] for x in table_of(concat_layouts([tiler, comp])).values), None


def definitional_product(a: Layout, b: Layout) -> Tuple[Tuple[int, ...], Optional[str]]:
    """The table of (a, complement(a) ∘ b), after checking the complement
    pointwise."""
    n = a.size() * b.cosize()
    comp = a.complement(n)
    if not check_complement(a, comp, n=n):
        return (), f"complement {comp} of the first operand is wrong"
    ta, tc, tb = table_of(a).values, table_of(comp).values, table_of(b).values
    sa = len(ta)
    return tuple(ta[x % sa] + tc[tb[x // sa]] for x in range(sa * len(tb))), None


def layout_op(kind: str, args: Sequence, r: Layout) -> Optional[str]:
    """None when ``r`` is the right result of ``args[0].<kind>(*args[1:])``,
    else what is wrong."""
    a, *rest = args
    if kind == "compose":
        ok = check_compose(a, rest[0], r)
    elif kind == "complement":
        ok = check_complement(a, r, n=rest[0])
    elif kind == "coalesce":
        ok = table_of(r) == table_of(a)
    elif kind == "coalesce_relative":
        ok = refines(r.shape, rest[0]) and table_of(r) == table_of(a)
    else:
        f = definitional_divide if kind == "logical_divide" else definitional_product
        want, err = f(a, rest[0])
        if err:
            return err
        ok = table_of(r).values == want
    return None if ok else f"{kind} gave {r}, which the oracle rejects"


def morphism_flat(domain, codomain, amap: Sequence[int]) -> FlatLayout:
    """The flat layout a morphism encodes, from its definition: mode i has
    the product of the codomain entries before position amap[i] as stride,
    or 0 at the basepoint."""
    cod = flatten(codomain)
    pre = [1]
    for c in cod:
        pre.append(pre[-1] * c)
    return FlatLayout(flatten(domain), tuple(0 if j == 0 else pre[j - 1] for j in amap))


def is_tractable(shape: Sequence[int], stride: Sequence[int]) -> bool:
    """Sorted by (stride, shape), each nonzero stride times its shape
    divides the next stride."""
    modes = sorted(zip(stride, shape))
    return all(d == 0 or d2 % (s * d) == 0 for (d, s), (d2, _) in zip(modes, modes[1:]))
