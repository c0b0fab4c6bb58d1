#!/usr/bin/env python3
"""Compare two benchmark result files (parent commit, then change).

    python3 benchmark/compare.py PARENT.json CHANGE.json

Both files come from benchmark/run.sh (suite mode) with the same seeds; run
the two sides alternately so slow phases of the machine hit both. Prints one
row per end-to-end metric per workload: each side's median and quartiles,
the change in the median, and a verdict judged against the bounds in
BENCHMARK.json:

  ok          the change's median is no worse than the parent's by more than
              the bound
  regressed   it is worse by more than the bound
  unresolved  either side's runs spread (q3 - q1, as a share of the median)
              wider than the bound, so the bound cannot be judged; unless
              every change run reads better than every parent run (then ok)

A row also reads "gain" when the claim rule holds: the change wins at least
9 of every 10 run pairs (pairs taken in run order, ties count for neither)
and the medians differ by more than the parent's q3 - q1.

Exit code 1 when any row regressed.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def judge(parent, change, direction, bound):
    p_med, p_q1, p_q3 = summary(parent)
    c_med, c_q1, c_q3 = summary(change)
    worse = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    limit = abs(p_med) * bound
    spread_wide = any(med != 0 and (q3 - q1) / abs(med) > bound
                      for med, q1, q3 in ((p_med, p_q1, p_q3), (c_med, c_q1, c_q3)))
    if spread_wide and not all(better(c, p, direction) for c in change for p in parent):
        verdict = "unresolved"
    elif worse > limit:
        verdict = "regressed"
    else:
        verdict = "ok"
    pairs = list(zip(parent, change))
    wins = sum(better(c, p, direction) for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > (p_q3 - p_q1):
        verdict += " gain"
    return verdict


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent = json.loads(Path(argv[1]).read_text())
    change = json.loads(Path(argv[2]).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressed = False
    print(f"{'workload':10s} {'metric':22s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        p_runs = parent["workloads"].get(workload, {}).get("runs", [])
        c_runs = change["workloads"].get(workload, {}).get("runs", [])
        if not p_runs or not c_runs:
            print(f"{workload:10s} (missing from one side)")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r[name] for r in p_runs if name in r]
            c = [r[name] for r in c_runs if name in r]
            if not p or not c:
                continue
            verdict = judge(p, c, metric["better"], metric["bound"])
            regressed |= verdict.startswith("regressed")
            p_med, p_q1, p_q3 = summary(p)
            c_med, c_q1, c_q3 = summary(c)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            print(f"{workload:10s} {name:22s} "
                  f"{p_med:12.5g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                  f"{c_med:12.5g} [{c_q1:9.4g}, {c_q3:9.4g}] "
                  f"{delta:+8.2%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
