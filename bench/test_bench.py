"""Self-tests of the benchmark harness.

    python3 -m pytest bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layoutkit import LayoutError  # noqa: E402

import run  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from stages import staged_compose, staged_divide, staged_product  # noqa: E402
from workloads import WORKED, WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_gives_identical_inputs(name):
    build = WORKLOADS[name].build
    assert build(random.Random(7)) == build(random.Random(7))
    assert build(random.Random(7)) != build(random.Random(8))


def test_self_time_of_hand_built_tree():
    spans = [
        Span("root", 0, 100, None, 1, True),
        Span("a", 10, 30, 0, 1, True),
        Span("a.inner", 12, 15, 1, 1, True),
        Span("b", 20, 50, 0, 1, True),  # overlaps a: the union [10, 50) is covered
        Span("c", 90, 120, 0, 1, True),  # runs past its parent: only [90, 100) counts
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 3, 3, 30, 30]


def test_tracer_records_parents_in_call_order():
    t = Tracer()
    t.call("outer", lambda: t.call("inner", lambda: None))
    with pytest.raises(ZeroDivisionError):
        t.call("failing", lambda: 1 // 0)
    assert [(s.name, s.parent, s.ok) for s in t.spans] == [
        ("outer", None, True), ("inner", 0, True), ("failing", None, False)]
    assert all(s.start <= s.end for s in t.spans)


@pytest.mark.parametrize("item", [it for it in WORKED if it.kind in ("compose", "logical_divide", "logical_product")],
                         ids=lambda it: f"{it.kind}-{it.args[0]}-{it.args[1]}")
def test_staged_replay_equals_layout_method(item):
    staged = {"compose": staged_compose, "logical_divide": staged_divide, "logical_product": staged_product}
    a, b = item.args
    try:
        want = getattr(a, item.kind)(b)
    except LayoutError as exc:
        with pytest.raises(type(exc)):
            staged[item.kind](Tracer(), a, b)
        return
    assert staged[item.kind](Tracer(), a, b) == want


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]


def test_check_counts_every_unexpected_outcome_as_a_failure():
    from clicases import Expect
    from workloads import ERROR, OK, REFUSED, Item

    wl = WORKLOADS["algebra-small"]
    cli = WORKLOADS["cli-mix"]
    a = WORKED[0].args[0]
    items = [
        Item("coalesce", (a,), "generated", OK),  # refused though built to be accepted
        Item("coalesce", (a,), "generated", OK),  # an exception outside the contract
        Item("compose", WORKED[0].args, "generated", None),  # a refusal it allows
        Item("compose", WORKED[14].args, "test_cli", REFUSED),  # accepted though it must be refused
        Item("coalesce", (a,), "generated", OK),  # right
    ]
    results = [(REFUSED, LayoutError("no")), (ERROR, TypeError("no")), (REFUSED, LayoutError("no")),
               (OK, a), (OK, a.coalesce())]
    loop = run.Loop([1] * 10, [0] * 10, [10], [run.calib.REF_NS], results, [2] * 5)
    chk = run.check(wl, items, loop)
    assert (chk.refused_ops, chk.failed_ops, len(chk.failures)) == (2, 6, 3)

    argv = ("coalesce", "(2,2):(1,2)")
    cli_items = [Item("cli", argv, "generated", Expect(0, check="coalesce", data=(a,))),
                 Item("cli", argv, "generated", Expect(2, err="parse-error:"))]
    cli_results = [(OK, (2, "", "parse-error: no\n")), (OK, (2, "", "parse-error: no\n"))]
    loop = run.Loop([1] * 2, [0] * 2, [10], [run.calib.REF_NS], cli_results, [1, 1])
    chk = run.check(cli, cli_items, loop)
    assert (chk.refused_ops, chk.failed_ops) == (1, 1)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_emitted_metrics_are_exactly_the_declared_ones(trace):
    p = _run("--workload", "cli-mix", "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert res["correct"] and res["attempted"] >= 1
    assert all(v["value"] != 0 for k, v in res["metrics"].items() if k in run.END_TO_END)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    p = _run("--workload", "algebra-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert not p.stdout.strip()
