"""Steadiness mode: two sets of benchmark runs of the same code, compared.

Run from the repository root:

    python3 bench/steady.py --runs 10 [--workload desk-mc ...] [--trace 1]

Runs ``bench/run.py`` 2 x ``--runs`` times per workload, one process at a
time, alternating set A and set B, each run with its own seed.  For every
metric it prints the median and quartiles (``statistics.quantiles``, n=4)
and the spread (q3 - q1) / median of each set and of both together.  A
metric agrees when the three spreads and the gap between the two medians
stay within its bound in ``BENCHMARK.json``, and a metric in unit
``count`` agrees only when every run gives the same value.  Per-layer
metrics have no bound; only their counts are checked.  Exits 1 when a
metric disagrees or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(metric: dict, a: list, b: list) -> tuple[list[str], bool]:
    """Table cells (set A, set B, both sets) for one metric and whether the sets agree."""
    cells, ok = [], True
    meds = []
    for values in (a, b, a + b):
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf") if q3 != q1 else 0.0
        meds.append(med)
        cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {100 * spread:.1f}%")
        if "bound" in metric and spread > metric["bound"]:
            ok = False
    meds.pop()
    if metric["unit"] == "count":
        ok = ok and len(set(a + b)) == 1
    elif "bound" in metric:
        ok = ok and abs(meds[1] - meds[0]) <= metric["bound"] * min(map(abs, meds))
    return cells, ok


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    all_ok = True
    for workload in args.workload or names:
        sets = ([], [])
        for i in range(2 * args.runs):
            res = one_run(workload, args.first_seed + i, args.seconds, args.trace)
            sets[i % 2].append(res)
            print(f"{workload} run {i + 1}/{2 * args.runs} seed {args.first_seed + i}: "
                  f"correct={res['correct']}", file=sys.stderr, flush=True)
        incorrect = sum(not r["correct"] for r in sets[0] + sets[1])
        print(f"\n{workload}: {2 * args.runs} runs, {incorrect} incorrect")
        print(f"  {'metric':<34}" + "".join(f"{h + ' median [q1, q3] spread':<44}" for h in ("set A", "set B", "all"))
              + "agree")
        all_ok &= incorrect == 0
        for metric in metrics:
            a = [r["metrics"][metric["name"]]["value"] for r in sets[0]]
            b = [r["metrics"][metric["name"]]["value"] for r in sets[1]]
            cells, ok = compare(metric, a, b)
            all_ok &= ok
            print(f"  {metric['name']:<34}" + "".join(f"{c:<44}" for c in cells) + ("yes" if ok else "NO"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
