"""A second, symbolic reference: CuTe's flat composition and complement.

The oracle tabulates functions and stops at its cap of 10^6 points; the
reference here works on shapes and strides alone, at any size.  It follows
the algorithm of the CuTe layout-algebra documentation (NVIDIA/cutlass,
``media/docs/cute/02_layout_algebra.md``), written on flat ``(shape, stride)``
pairs of Python ints with no range check:

- ``composition(A, B)`` is ``x ↦ A(B(x))``.  For each mode ``s:d`` of ``B`` it
  divides ``d`` out of the modes of ``coalesce(A)`` but the last (a mode is
  used up where ``d`` is a multiple of its extent, and cut where its extent is
  a multiple of ``d``), then takes modes until their extents make ``s``.  The
  last mode of ``A`` extends without bound.
- ``complement(A, M)`` walks the modes of ``A`` by stride and fills each gap,
  then covers up to ``M`` with one last mode.
- ``composition_by_mode(A, B)`` distributes over the modes of a nested ``B``:
  it is the tree of ``composition(A, leaf)`` over ``B``'s leaves, where a leaf
  that yields one mode stays a leaf and any other becomes the tuple of its
  coalesced modes.
- ``logical_divide(A, B)`` is ``composition(A, (B, complement(B, size(A))))``
  and ``logical_product(A, B)`` is
  ``(A, composition(complement(A, size(A)·cosize(B)), B))``, each by mode, on
  ``(shape, stride)`` trees.

CuTe's ``composition(A, B)`` is ``B.compose(A)`` here.  The engine and the
reference are compared exactly (:func:`agreement`): where the engine answers a
composition, divide or product, the reference must give the same shape and
stride trees, nesting included; a complement, which is flat, is compared by
``coalesce()``.  The tests in ``test_cute_reference.py`` and a battery of
``tools/differential.py`` read it.
"""

from math import prod

from layoutkit import LayoutError


class NotDivisible(Exception):
    """Neither of two extents divides the other: CuTe's divisibility condition fails."""


def coalesce(shape, stride):
    """Unit modes dropped, and each mode merged into the one before it where it
    continues it; ``(1,):(0,)`` where no mode is left."""
    modes = []
    for s, d in zip(shape, stride):
        if s == 1:
            continue
        if modes and modes[-1][0] * modes[-1][1] == d:
            modes[-1] = (modes[-1][0] * s, modes[-1][1])
        else:
            modes.append((s, d))
    return tuple(s for s, _ in modes) or (1,), tuple(d for _, d in modes) or (0,)


def shape_div(a, b):
    """CuTe's ``shape_div``: ``a / b`` where ``b`` divides ``a``, 1 where ``a`` divides ``b``."""
    if a % b == 0:
        return a // b
    if b % a == 0:
        return 1
    raise NotDivisible(f"neither of {a} and {b} divides the other")


def composition(outer, inner):
    """``x ↦ outer(inner(x))``, coalesced; ``outer``'s last mode extends without bound."""
    o_shape, o_stride = coalesce(*outer)
    shape, stride = [], []
    for s, d in zip(*inner):
        if s == 1 or d == 0:  # the mode maps every point to outer(0)
            shape.append(s)
            stride.append(0)
            continue
        rest, mode_s, mode_d = d, [], []
        for e, t in zip(o_shape[:-1], o_stride[:-1]):  # divide d out
            cut = shape_div(e, rest)
            mode_s.append(cut)
            mode_d.append(t * (e // cut))
            rest = shape_div(rest, e)
        mode_d.append(o_stride[-1] * rest)
        left = s
        for i, e in enumerate(mode_s):  # take modes until their extents make s
            mode_s[i] = min(e, left)
            left = shape_div(left, e)
        mode_s.append(left)
        shape += mode_s
        stride += mode_d
    return coalesce(shape, stride)


def composition_by_mode(outer, inner):
    """``composition(outer, leaf)`` at each leaf of ``inner``, a ``(shape, stride)`` pair of
    trees: one mode as a leaf, more as the tuple of its coalesced modes."""
    shape, stride = inner
    if isinstance(shape, tuple):
        modes = [composition_by_mode(outer, mode) for mode in zip(shape, stride)]
        return tuple(s for s, _ in modes), tuple(d for _, d in modes)
    return _leaf(composition(outer, ((shape,), (stride,))))


def _leaf(layout):
    """A flat ``(shape, stride)`` pair of one mode as a pair of ints, else as it is."""
    shape, stride = layout
    return (shape[0], stride[0]) if len(shape) == 1 else layout


def flatten(tree):
    """The leaves of ``tree`` as a tuple, left to right."""
    return sum(map(flatten, tree), ()) if isinstance(tree, tuple) else (tree,)


def _flat(layout):
    """A ``(shape, stride)`` pair of trees as a pair of flat tuples."""
    return flatten(layout[0]), flatten(layout[1])


def complement(layout, size):
    """CuTe's complement of ``layout`` in ``size``: each gap below the modes, taken by
    stride, then one mode up to ``size``, coalesced."""
    shape, stride, covered = [], [], 1
    for d, s in sorted((d, s) for s, d in zip(*layout) if s != 1 and d != 0):
        if d % covered:
            raise NotDivisible(f"stride {d} is not a multiple of {covered}")
        shape.append(d // covered)
        stride.append(covered)
        covered = s * d
    shape.append(-(-size // covered))
    stride.append(covered)
    return coalesce(shape, stride)


def cosize(layout):
    return sum((s - 1) * d for s, d in zip(*layout)) + 1


def logical_divide(a, b):
    """``composition(a, (b, complement(b, size(a))))`` by mode, on ``(shape, stride)`` trees."""
    flat_a = _flat(a)
    shape, stride = _leaf(complement(_flat(b), prod(flat_a[0])))
    return composition_by_mode(flat_a, ((b[0], shape), (b[1], stride)))


def logical_product(a, b):
    """``(a, composition(complement(a, size(a)·cosize(b)), b))`` by mode, on ``(shape, stride)``
    trees."""
    flat_a = _flat(a)
    shape, stride = composition_by_mode(complement(flat_a, prod(flat_a[0]) * cosize(_flat(b))), b)
    return (a[0], shape), (a[1], stride)


def pair(layout):
    flat = layout.flat()
    return flat.shape, flat.stride


def tree(layout):
    return layout.shape, layout.stride


def engine(op, a, b):
    """The engine's result as a ``(shape, stride)`` pair of trees, a complement's coalesced, or
    None where it refuses."""
    try:
        if op == "complement":  # coalesced on Python ints: a merged extent may pass 2^63-1
            return coalesce(*pair(a.complement(b)))
        return tree(getattr(a, op)(b))  # compose: CuTe's composition(b, a)
    except LayoutError:
        return None


def reference(op, a, b):
    """The reference's result, or None where it refuses."""
    try:
        if op == "compose":
            return composition_by_mode(pair(b), tree(a))
        if op == "complement":
            return complement(pair(a), b)
        return {"logical_divide": logical_divide, "logical_product": logical_product}[op](
            tree(a), tree(b)
        )
    except NotDivisible:
        return None


def operations(a, b):
    """The four operations on the pair ``(a, b)``, each with its second operand: a
    complement is taken in a multiple of the extent that ``a``'s modes span."""
    span = max((s * d for s, d in zip(*pair(a)) if s != 1), default=1)
    return (
        ("compose", b),
        ("complement", span * prod(pair(b)[0])),
        ("logical_divide", b),
        ("logical_product", b),
    )


def agreement(op, a, second):
    """``agree`` where the engine answers as the reference does, ``disagree: …`` where it
    answers otherwise, else ``reference only`` or ``neither``: who answers where the engine
    refuses."""
    got, want = engine(op, a, second), reference(op, a, second)
    if got is not None:
        return "agree" if got == want else f"disagree: engine {got}, reference {want}"
    return "neither" if want is None else "reference only"
