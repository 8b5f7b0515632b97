"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--out FILE] [--compare FILE]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median and its quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound in BENCHMARK.json.  ``--out`` merges every run's result line
and its measured (unscaled) values, with their provenance, into a JSON file
keyed by workload, so a later change can be compared with this one without
re-running it.  ``--compare`` reads such a file and prints, for each
metric, how far this set's median is from the stored set's, in the
direction that is worse, next to the metric's bound.

``setup_s`` is held to no spread: it is the one metric the benchmark's
contract gates only by the change of its median between two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path, help="a file written by --out")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        res = json.loads(out.stdout.strip().splitlines()[-1])
        rec = json.loads((HERE / "results" / f"{args.workload}.jsonl").read_text().splitlines()[-1])
        runs.append({"seed": seed, **res, "measured": rec["measured"], "utc": rec["utc"]})
        print(f"seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        s = spread(values)
        steady = m["name"] == "setup_s" or s < m["bound"] / 3
        ok &= steady
        print(f"{args.workload:14s} {m['name']:14s} median {statistics.median(values):12.4f} {m['unit']:4s} "
              f"spread {s:.4f} bound {m['bound']:.2f} {'' if steady else 'NOT STEADY'}")

    if args.compare:
        before = json.loads(args.compare.read_text())[args.workload]["runs"]
        for m in bench["end_to_end"]:
            old = statistics.median(r["metrics"][m["name"]]["value"] for r in before)
            new = statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
            worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
            within = worse <= m["bound"]
            ok &= within
            print(f"{args.workload:14s} {m['name']:14s} median {old:12.4f} -> {new:12.4f} worse by {worse:+.4f} "
                  f"bound {m['bound']:.2f} {'' if within else 'OUT OF BOUND'}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        last = json.loads((HERE / "results" / f"{args.workload}.jsonl").read_text().splitlines()[-1])
        doc[args.workload] = {
            "provenance": {k: last[k] for k in ("python", "nproc", "commit", "src_modified")},
            "seconds": seconds,
            "runs": runs,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
