"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts by 10-20% over tens
of seconds, as neighbours come and go; that drift is larger than the
regressions the benchmark must catch.  A fixed pure-Python kernel, which
imports nothing from layoutkit, is timed after every ~100 ms slice of
workload.  Times in a slice are scaled by ``factor(kernel time)``, with the
kernel time the median over the neighbouring slices: the end-to-end time
metrics are what the run would have measured on a machine where the kernel
takes ``REF_NS``, about its median on the 2-core machine the committed
baseline was measured on.  Raw figures are recorded next to the corrected
ones.

The workloads speed up and slow down less than the kernel does, hence
``EXPONENT`` < 1.  It is one value for every workload: over seeded 10 s
runs of each workload, some in the machine's fast periods, the exponent
that minimised the spread of ops_per_s lay between 0.6 and 1.0 depending
on the workload and the period, and 0.9 kept every workload's spread near
its own minimum.
"""

from __future__ import annotations

from time import perf_counter_ns

#: the kernel's reference duration
REF_NS = 6_000_000
#: workload time ~ kernel time ** EXPONENT when the machine's speed changes
EXPONENT = 0.9


def _tree(n: int, d: int):
    return n if d == 0 else tuple(_tree(n + i, d - 1) for i in range(3))


def _leaves(x):
    if isinstance(x, int):
        yield x
    else:
        for c in x:
            yield from _leaves(c)


def kernel() -> int:
    """Tuple trees, generators, sorting and dict updates: the kind of work
    layoutkit does, without layoutkit."""
    acc = 0
    for r in range(40):
        flat = tuple(_leaves(_tree(r, 4)))
        d: dict = {}
        for a, b in sorted(zip(flat[::2], flat[1::2])):
            d[a] = d.get(a, 0) + b * (a % 7)
        acc += sum(d.values())
    return acc


def kernel_ns() -> int:
    t0 = perf_counter_ns()
    kernel()
    return perf_counter_ns() - t0


def factor(kernel_ns: float) -> float:
    """Factor taking a time measured while the kernel took ``kernel_ns`` to
    the reference speed."""
    return (REF_NS / kernel_ns) ** EXPONENT
