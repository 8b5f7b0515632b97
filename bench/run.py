"""layoutkit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs them in a closed loop (one
caller, one thread) for S seconds, checks every distinct result against the
oracle, and prints one line per metric followed by a JSON summary as the
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
repeats the loop with spans around every call into layoutkit and reports
the per-layer metrics.  ``--workload all`` (the default) runs every
workload, each in its own process.  Each run appends a record with its raw
values and provenance to ``bench/results/<workload>.jsonl``.

The library is imported from ``src/`` next to this directory; the run fails
when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, NamedTuple, Optional, Tuple

import calib

START_NS = perf_counter_ns()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: end-to-end metrics (untraced run) and their units
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced run) and their units
PER_LAYER = {
    "notation.parse_us": "us",
    "notation.format_us": "us",
    "cli.overhead_us": "us",
    "layout.construct_us": "us",
    "layout.coalesce_us": "us",
    "layout.complement_us": "us",
    "layout.coalesce_relative_us": "us",
    "layout.compose_us": "us",
    "layout.logical_divide_us": "us",
    "layout.logical_product_us": "us",
    "flat.is_tractable_us": "us",
    "flat.complement_us": "us",
    "flat.coalesce_us": "us",
    "shapes.flatten_us": "us",
    "shapes.profile_us": "us",
    "shapes.relative_modes_us": "us",
    "tuplecat.standard_representation_us": "us",
    "tuplecat.layout_of_us": "us",
    "tuplecat.codomain_entries": "count",
    "nestcat.standard_representation_nested_us": "us",
    "nestcat.mutual_refinement_us": "us",
    "nestcat.make_composable_us": "us",
    "nestcat.composite_us": "us",
    "nestcat.mutual_refinement_hit_ratio": "ratio",
    "nestcat.refined_entries": "count",
    "oracle.table_of_us": "us",
    "oracle.points_per_s": "1/s",
    "oracle.check_compose_us": "us",
    "oracle.check_complement_us": "us",
    "oracle.complement_search_us": "us",
    "trace.overhead_ratio": "ratio",
}

#: set-ups timed per run, each in a fresh process; setup_s is their median
SETUP_SAMPLES = 5
#: ``python -m layoutkit.cli`` subprocesses per cli-mix run, each checked
#: against the in-process result; the median of their times is printed as
#: cli_spawn_ms but is no end-to-end metric: it spreads too much between runs
SPAWNS = 11
#: operations run once during set-up before anything is timed
WARM_OPS = 64
#: workload time between two timings of the calibration kernel
SLICE_NS = 100_000_000
#: slices whose kernel timings set one slice's scale
KERNEL_WINDOW = 5

ENGINE_LAYERS = ("layout", "flat", "shapes", "tuplecat", "nestcat")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="layoutkit benchmark")
    p.add_argument("--workload", default="all", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library() -> None:
    """Put ``src/`` first on the path and check layoutkit comes from it."""
    if not (SRC / "layoutkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no layoutkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import layoutkit

    if Path(layoutkit.__file__).resolve().parent != SRC / "layoutkit":
        raise SystemExit(f"error: layoutkit imported from {layoutkit.__file__}, not {SRC}")


# -- running operations ------------------------------------------------------------


class Loop(NamedTuple):
    latencies_ns: List[int]
    slice_of: List[int]  # per op: the slice it ran in
    slice_ns: List[int]  # per slice: time spent on operations
    kernel_ns: List[int]  # per slice: the calibration kernel timed after it
    results: list  # per item: (status, value) of its first run, or None
    runs: List[int]  # per item: times run

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)

    @property
    def elapsed_s(self) -> float:
        return sum(self.slice_ns) / 1e9

    def scale(self, k: int) -> float:
        """Factor taking a time in slice ``k`` to the reference speed: the
        median of the kernel timings of the slices around it, so one
        disturbed timing does not rescale a slice on its own."""
        near = self.kernel_ns[max(0, k - KERNEL_WINDOW // 2) : k + KERNEL_WINDOW // 2 + 1]
        return calib.factor(statistics.median(near))

    def rate(self) -> float:
        """Operations per second of the timed phase at the reference speed."""
        return self.ops / (sum(ns * self.scale(k) for k, ns in enumerate(self.slice_ns)) / 1e9)

    def latencies_us(self) -> List[float]:
        """Each operation's latency at the reference speed."""
        scales = [self.scale(k) for k in range(len(self.slice_ns))]
        return [ns * scales[k] / 1e3 for ns, k in zip(self.latencies_ns, self.slice_of)]

    def input_latencies_us(self, n_items: int) -> List[float]:
        """Each operation's latency replaced by the median latency of its
        input over the run, at the reference speed.  A diagnostic only: it
        hides whatever the library adds on a minority of calls."""
        per: List[List[float]] = [[] for _ in range(n_items)]
        lat = self.latencies_us()
        for i, us in enumerate(lat):
            per[i % n_items].append(us)
        med = [statistics.median(v) if v else 0.0 for v in per]
        return [med[i % n_items] for i in range(len(lat))]


def timed_loop(op, items, seconds: float, tracer=None) -> Loop:
    """Run items in order, cycling, until ``seconds`` have passed; after
    every slice of about ``SLICE_NS`` the calibration kernel is timed."""
    from layoutkit import LayoutError, NotationError
    from workloads import ERROR, OK, REFUSED

    n = len(items)
    lat: List[int] = []
    slice_of: List[int] = []
    slice_ns: List[int] = []
    kernel_ns: List[int] = []
    results: list = [None] * n
    runs = [0] * n
    i = 0
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    slice_start = start
    while True:
        k = i % n
        if tracer is not None:
            tracer.next_op()
        t0 = perf_counter_ns()
        try:
            r, st = op(items[k]), OK
        except (LayoutError, NotationError) as exc:
            r, st = exc, REFUSED
        except Exception as exc:  # outside the error contract: recorded as a failure
            r, st = exc, ERROR
        t1 = perf_counter_ns()
        lat.append(t1 - t0)
        slice_of.append(len(slice_ns))
        if not runs[k]:
            results[k] = (st, r)
        runs[k] += 1
        i += 1
        if t1 - slice_start >= SLICE_NS or t1 >= deadline:
            slice_ns.append(t1 - slice_start)
            kernel_ns.append(calib.kernel_ns())
            if t1 >= deadline:
                break
            deadline += perf_counter_ns() - t1  # the kernel's time is not the workload's
            slice_start = perf_counter_ns()
    return Loop(lat, slice_of, slice_ns, kernel_ns, results, runs)


def setup(wl, seed: int, marks: Optional[list] = None):
    """Build the inputs and warm up.  With ``marks``, the calibration kernel
    is timed after the imports, the build and the warm-up, and each
    checkpoint is appended as (time it was reached, kernel time)."""

    def mark():
        if marks is not None:
            marks.append((perf_counter_ns(), calib.kernel_ns()))

    mark()
    items = wl.build(random.Random(seed))
    mark()
    for item in items[:WARM_OPS]:
        try:
            wl.op(item)
        except Exception:  # refusals and failures are counted in the timed phase
            pass
    # the input pool is the harness's data, not the library's: keep the
    # collector from rescanning it during timed phases
    gc.collect()
    gc.freeze()
    mark()
    return items


def timed_run(cmd, timeout: float, **kwargs) -> Tuple[subprocess.CompletedProcess, float]:
    """Run ``cmd`` to completion; return it and its wall time.

    ``subprocess.run`` with a timeout polls for the child's exit at up to
    50 ms intervals, so the wait here blocks and a timer kills the child
    when it overruns instead."""
    t0 = perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    killer = threading.Timer(timeout, p.kill)
    killer.start()
    try:
        out, err = p.communicate()
    finally:
        killer.cancel()
    return subprocess.CompletedProcess(cmd, p.returncode, out, err), perf_counter() - t0


def setup_seconds(args) -> Tuple[float, float]:
    """Wall time of one fresh process importing layoutkit, building the
    inputs and warming up, as measured and at the reference speed.

    The child times the kernel after each of its three phases and reports
    the phases; each phase is scaled by the kernel timed after it, and the
    interpreter's start by the first one.  Kernel time is not set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    p, wall = timed_run(cmd, 120, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit(f"error: set-up process exited with {p.returncode}")
    phases = json.loads(p.stdout)["phases"]
    measured = wall - sum(k for _, k in phases) / 1e9
    outside = measured - sum(ns for ns, _ in phases) / 1e9
    scaled = outside * calib.factor(phases[0][1]) + sum(ns * calib.factor(k) for ns, k in phases) / 1e9
    return measured, scaled


def cli_spawns(items, seed: int):
    """Wall times of ``python -m layoutkit.cli`` on a seeded sample of the
    cli-mix items, one process at a time, each checked against the
    in-process result."""
    import clicases

    picks = random.Random(seed).sample(range(len(items)), min(SPAWNS, len(items)))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, failures = [], []
    for k in picks:
        argv = items[k].args
        p, wall = timed_run([sys.executable, "-m", "layoutkit.cli", *argv], 120, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        times.append(wall)
        want = clicases.run_main(argv)
        if (p.returncode, p.stdout) != want[:2]:
            failures.append((k, f"subprocess gave exit {p.returncode}, in-process exit {want[0]}"))
    return times, failures


def known_defects() -> List[dict]:
    """The known CLI defect classes, run as they stand."""
    import clicases

    out = []
    try:
        r = clicases.run_main(clicases.DEEP_ARGV)
        msg = clicases.verify(clicases.DEEP_ARGV, clicases.Expect(2, err="parse-error:"), r)
    except Exception as exc:  # the contract allows only exit codes
        msg = f"{type(exc).__name__} escaped main"
    out.append({"input": "tractable on 3000-deep nesting", "failure": msg})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    p = subprocess.run([sys.executable, "-m", "layoutkit.cli", *clicases.OVERSIZED_RENDER],
                       capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
    out.append({
        "input": "render " + clicases.OVERSIZED_RENDER[1] + " (1,001,000 cells)",
        "failure": clicases.oversized_ok(p.returncode, p.stdout, p.stderr),
        "exit": p.returncode,
        "seconds": round(perf_counter() - t0, 3),
    })
    return out


# -- checking ------------------------------------------------------------------------


class Check(NamedTuple):
    refused_ops: int  # operations ending in a refusal their input allows
    failed_ops: int  # operations ending in any other way than their input must
    failures: List[str]  # one per distinct failing input


def check(wl, items, loop: Loop) -> Check:
    """Verify the first result of every item the loop reached.

    A failure is a wrong answer, an exception outside the error contract, a
    refusal of an input built to be accepted, an acceptance of an input that
    must be refused, or a CLI exit code other than the expected one."""
    from layoutkit import LayoutError, NotationError
    from workloads import ERROR, OK, REFUSED

    refused = failed = 0
    failures = []
    for k, res in enumerate(loop.results):
        if res is None:
            continue
        st, r = res
        item = items[k]
        if st == ERROR:
            msg = f"{type(r).__name__} escaped: {str(r)[:120]}"
        elif st == REFUSED:
            if item.expect == OK:
                msg = f"refused an input built to be accepted: {type(r).__name__}: {str(r)[:120]}"
            else:
                refused += loop.runs[k]
                continue
        elif item.expect == REFUSED:
            msg = f"accepted an input that must be refused, giving {r}"
        else:
            try:
                msg = wl.verify(item, r)
            except (LayoutError, NotationError, ValueError, IndexError) as exc:
                msg = f"result could not be checked: {type(exc).__name__}: {exc}"
            if msg is None and item.kind == "cli" and r[0] != 0:
                refused += loop.runs[k]
                continue
        if msg is not None:
            failed += loop.runs[k]
            failures.append(f"item {k} ({item.tag} {item.kind} {_short(item)}): {msg}")
    return Check(refused, failed, failures)


def _short(item) -> str:
    return " ".join(str(a) for a in item.args)[:160]


# -- reporting ------------------------------------------------------------------------


def provenance(args) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()

        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--", "src"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_modified": dirty,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def record(rec: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{rec['workload']}.jsonl", "a") as f:
        f.write(json.dumps(rec) + "\n")


def show(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:14s} {name:42s} {value:14.4f} {unit:6s} {note}")


def summary(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


# -- one workload -------------------------------------------------------------------


def run_untraced(args, wl, items) -> int:
    from workloads import profile

    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    loop = timed_loop(wl.op, items, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    spawn_s, spawn_failures = cli_spawns(items, args.seed) if wl.name == "cli-mix" else ([], [])
    chk = check(wl, items, loop)
    defects = known_defects() if wl.name == "cli-mix" else []
    failures = chk.failures + [f"spawn of item {k}: {m}" for k, m in spawn_failures]

    lat = loop.latencies_us()
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "ops_per_s": loop.rate(),
        "op_p50_us": statistics.median(lat),
        "peak_rss_mb": rss_mb,
    }
    raw_lat = loop.latencies_ns
    raw = {
        "setup_s": statistics.median(measured for measured, _ in setups),
        "ops_per_s": loop.ops / loop.elapsed_s,
        "op_p50_us": statistics.median(raw_lat) / 1e3,
        "peak_rss_mb": rss_mb,
    }
    # printed and recorded, but no end-to-end metrics: the plain p99 spreads
    # too much between runs, and the per-input figures hide what the
    # library adds on a minority of calls
    per_input = loop.input_latencies_us(len(items))
    diagnostic = {
        "op_p99_us": statistics.quantiles(lat, n=100)[98],
        "op_p99_us_measured": statistics.quantiles(raw_lat, n=100)[98] / 1e3,
        "ops_per_s_per_input": loop.ops / (sum(per_input) / 1e6),
        "op_p99_us_per_input": statistics.quantiles(per_input, n=100)[98],
    }
    # the timed phase and the spawns; the known defect classes are reported
    # on their own lines and in the record, not in these counts
    attempted = loop.ops + len(spawn_s)
    failed = chk.failed_ops + len(spawn_failures)
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"{loop.ops} ops in {loop.elapsed_s:.3f} s",
        "op_p50_us": f"n={loop.ops}",
        "peak_rss_mb": "after the timed phase",
    }
    speed = statistics.median(calib.REF_NS / k for k in loop.kernel_ns)
    print(f"{wl.name:14s} machine speed during the timed phase: {speed:.3f} of reference "
          f"(median of {len(loop.kernel_ns)} kernel timings); times below are at reference speed")
    for name, unit in END_TO_END.items():
        show(wl.name, name, metrics[name], unit, f"{notes[name]}; measured {raw[name]:.4f}")
    if spawn_s:
        spawn_ms = statistics.median(spawn_s) * 1e3
        show(wl.name, "cli_spawn_ms", spawn_ms, "ms", f"median of {len(spawn_s)} subprocesses; not an end-to-end metric")
    reached = sum(1 for r in loop.results if r is not None)
    repeated = 1 - reached / loop.ops
    show(wl.name, "refused_ratio", chk.refused_ops / loop.ops, "ratio", f"{chk.refused_ops} of {loop.ops} ops")
    show(wl.name, "failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} attempted")
    show(wl.name, "repeated_ratio", repeated, "ratio",
         f"{loop.ops - reached} of {loop.ops} ops rerun one of {reached} distinct inputs")
    show(wl.name, "op_p99_us", diagnostic["op_p99_us"], "us",
         f"n={loop.ops}, {loop.ops // 100} beyond; measured {diagnostic['op_p99_us_measured']:.4f}; "
         "not an end-to-end metric")
    for name, unit in (("ops_per_s_per_input", "1/s"), ("op_p99_us_per_input", "us")):
        show(wl.name, name, diagnostic[name], unit, "each op costed at its input's median latency; a diagnostic")
    print(f"{wl.name:14s} distinct inputs run and checked: {reached} of {len(items)}")
    for d in defects:
        print(f"{wl.name:14s} known defect (outside the timed phase, not in failed): "
              f"{d['input']}: {d['failure'] or 'passes'}")
    for f in failures:
        print(f"{wl.name:14s} FAILED {f}")

    rec = provenance(args)
    rec.update(metrics=metrics, measured=raw, diagnostic=diagnostic, kernel_ns=loop.kernel_ns,
               samples={"setup_s": setups, "cli_spawn_s": spawn_s, "ops": loop.ops},
               refused_ratio=chk.refused_ops / loop.ops, failed_ratio=failed / attempted,
               attempted=attempted, failed=failed, failures=failures, known_defects=defects,
               inputs=profile(items), distinct_inputs_run=reached, repeated_share=repeated)
    record(rec)
    print(summary(failed == 0, attempted, failed, metrics, END_TO_END))
    return 0


def run_traced(args, wl, items) -> int:
    from probe import layer_metrics, probe
    from spans import Tracer, self_time_by_name
    from workloads import OK

    # untraced and traced loops alternate, so drift in the machine's speed
    # falls on both sides of trace.overhead_ratio alike
    slice_s = args.seconds / 6
    tr = Tracer()
    plain = [timed_loop(wl.op, items, slice_s)]
    traced = [timed_loop(lambda it: wl.traced_op(tr, it), items, slice_s, tracer=tr)]
    plain.append(timed_loop(wl.op, items, slice_s))
    traced.append(timed_loop(lambda it: wl.traced_op(tr, it), items, slice_s, tracer=tr))
    pt = Tracer()
    probed = probe(pt, items, wl.probe_items)
    chk = check(wl, items, plain[0])
    mismatch = [
        f"item {k}: traced {b[1]} != untraced {a[1]}"
        for k, (a, b) in enumerate(zip(plain[0].results, traced[0].results))
        if a is not None and b is not None and (a[0] != b[0] or (a[0] == OK and a[1] != b[1]))
    ]

    metrics = layer_metrics(pt)

    def rate(loops):
        return sum(l.ops for l in loops) / sum(l.ops / l.rate() for l in loops)

    metrics["trace.overhead_ratio"] = rate(traced) / rate(plain)
    missing = [m for m in PER_LAYER if m not in metrics]
    if missing:
        raise SystemExit(f"error: probe of {probed} items produced no {missing}")
    found, tried = pt.counts["nestcat.mutual_refinement.found"]
    notes = {
        "nestcat.mutual_refinement_hit_ratio": f"{found} found of {tried} attempted",
        "trace.overhead_ratio": f"over {sum(l.ops for l in traced)} traced and {sum(l.ops for l in plain)} untraced ops",
    }
    print(f"{wl.name:14s} layer probe over the first {probed} inputs of the pool")
    for name, unit in PER_LAYER.items():
        show(wl.name, name, metrics[name], unit, notes.get(name, ""))

    # where the timed phase spends its time, by layer (self time)
    by_name = self_time_by_name(tr.spans)
    total = sum(by_name.values())
    layers: Dict[str, float] = {}
    for name, ns in by_name.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0) + ns / total
    engine = sum(v for k, v in layers.items() if k in ENGINE_LAYERS)
    print(f"{wl.name:14s} timed-phase self time by layer: "
          + ", ".join(f"{k} {v:.3f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])))
    print(f"{wl.name:14s} engine share of timed-phase self time: {engine:.4f} "
          f"({len(tr.spans)} spans over {sum(l.ops for l in traced)} ops)")
    stages = stage_report(wl, items, tr, plain, traced, metrics)

    failures = chk.failures + mismatch
    for f in failures:
        print(f"{wl.name:14s} FAILED {f}")
    attempted = sum(l.ops for l in plain + traced)
    failed = chk.failed_ops + len(mismatch)
    rec = provenance(args)
    rec.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures,
               timed_self_share=layers, engine_share=engine, stages=stages, probed_items=probed,
               ops={"untraced": sum(l.ops for l in plain), "traced": sum(l.ops for l in traced)})
    record(rec)
    print(summary(chk.failed_ops == 0 and not mismatch, attempted, failed, metrics, PER_LAYER))
    return 0


def stage_split(a, b, reps: int = 200) -> Dict[str, float]:
    """Median self time in microseconds of each compose stage over ``reps``
    staged runs of ``a`` then ``b``."""
    from spans import Tracer, self_times
    from stages import COMPOSE_STAGES, staged_compose

    t = Tracer()
    for _ in range(reps):
        t.next_op()
        t.call("bench.staged_compose", staged_compose, t, a, b)
    sums: List[Dict[str, int]] = [{} for _ in range(reps + 1)]
    for s, st in zip(t.spans, self_times(t.spans)):
        sums[s.op][s.name] = sums[s.op].get(s.name, 0) + st
    per: Dict[str, List[float]] = {}
    for op_sums in sums[1:]:
        for name in COMPOSE_STAGES + ("bench.staged_compose",):
            per.setdefault(name, []).append(op_sums.get(name, 0) / 1e3)
    totals = [sum(op_sums.values()) / 1e3 for op_sums in sums[1:]]
    out = {name: statistics.median(v) for name, v in per.items()}
    out["total"] = statistics.median(totals)
    out["machine_speed"] = calib.REF_NS / statistics.median(calib.kernel_ns() for _ in range(5))
    return out


def stage_report(wl, items, tr, plain, traced, metrics) -> dict:
    """The per-stage split of one composition (the README pair on
    algebra-small, the first generated pair on algebra-wide), and how the
    staged compositions of the traced loops compare with the same
    compositions in the untraced loops, at the reference speed."""
    from layoutkit import LayoutError
    from workloads import OK

    out: dict = {}
    pair = None
    if wl.name == "algebra-small":
        pair = next(it for it in items if it.tag == "readme" and it.kind == "compose").args
    elif wl.name == "algebra-wide":
        for it in items:
            if it.kind == "compose":
                try:
                    it.args[0].compose(it.args[1])
                except LayoutError:
                    continue
                pair = it.args
                break
    if pair is not None:
        split = stage_split(*pair)
        out["split"] = {"pair": [str(pair[0]), str(pair[1])], "median_self_us": split}
        speed = split.pop("machine_speed")
        out["split"]["machine_speed"] = speed
        print(f"{wl.name:14s} compose stages of {pair[0]} then {pair[1]} (median self time as measured; "
              f"machine speed {speed:.2f} of reference):")
        for name, us in split.items():
            print(f"{wl.name:14s}   {name:40s} {us:10.1f} us  {us / split['total']:6.1%}")
    # the tracer numbers operations from 1 across both traced loops
    op_scale = [l.scale(k) for l in traced for k in l.slice_of]
    roots = [
        (s.end - s.start) * op_scale[s.op - 1]
        for s in tr.spans
        if s.name == "bench.staged_compose" and s.parent is None and s.ok
    ]
    n = len(items)
    direct = [
        us
        for loop in plain
        for i, us in enumerate(loop.latencies_us())
        if items[i % n].kind == "compose" and loop.results[i % n][0] == OK
    ]
    if roots and direct:
        staged, untraced = statistics.median(roots) / 1e3, statistics.median(direct)
        out["compose_us"] = {"staged": staged, "untraced": untraced}
        print(f"{wl.name:14s} compose in the timed loops: staged median {staged:.1f} us over {len(roots)} ops, "
              f"untraced median {untraced:.1f} us over {len(direct)} ops, untraced / staged {untraced / staged:.3f} "
              f"(trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f})")
    return out


# -- entry points ----------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, one process each, one after another."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    units = PER_LAYER if args.trace else END_TO_END
    all_units = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stderr)
            return p.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for k, u in units.items():
            metrics[f"{name}/{k}"] = res["metrics"][k]["value"]
            all_units[f"{name}/{k}"] = u
    print(summary(correct, attempted, failed, metrics, all_units))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    marks = [(START_NS, 0)] if args.setup_only else None
    items = setup(wl, args.seed, marks)
    if args.setup_only:
        # each phase runs from the end of the previous checkpoint's kernel
        phases = [(t - (t0 + k0), k) for (t0, k0), (t, k) in zip(marks, marks[1:])]
        print(json.dumps({"phases": phases}), flush=True)
        os._exit(0)  # skip interpreter teardown: set-up time ends here
    return run_traced(args, wl, items) if args.trace else run_untraced(args, wl, items)


if __name__ == "__main__":
    sys.exit(main())
