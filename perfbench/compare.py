#!/usr/bin/env python3
"""Compare two sets of perfbench runs.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of captured run.py standard output, one
file per run (for example `run.py ... > before/retime_mid_3.out`). Each
capture holds the "inputs: {...}" identity line and the final JSON result.

The comparison
  * refuses (exit 3) when the same workload and seed rendered different
    inputs in the two sets, or within one set: the generator changed, so
    the sets need a new baseline rather than a speed comparison;
  * reports (exit 1) every deterministic value that differs for the same
    workload and seed: objective_gain and, from traced runs, every count
    and ser.reduction_pct. Same code must reproduce them exactly;
  * for every end-to-end metric and workload prints each side's median and
    quartiles and flags the metric as worse (exit 1) when AFTER's median is
    worse than BEFORE's by more than the bound in BENCHMARK.json. Where
    BEFORE's own quartile spread exceeds the bound it says "unresolved".
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        identity = result = None
        with open(path) as f:
            lines = f.read().splitlines()
        for line in lines:
            if line.startswith("inputs: "):
                identity = json.loads(line[len("inputs: "):])
        if lines:
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
        if identity is None or not isinstance(result, dict):
            print(f"skipping {path}: not a perfbench capture", file=sys.stderr)
            continue
        trace = any(k not in END_TO_END for k in result["metrics"])
        runs.append({"path": path, "identity": identity, "result": result,
                     "trace": trace})
    return runs


def deterministic(run):
    """The values that must repeat exactly for the same inputs and code."""
    m = run["result"]["metrics"]
    if not run["trace"]:
        return {"objective_gain": m["objective_gain"]["value"]}
    return {k: v["value"] for k, v in m.items()
            if v["unit"] == "count" or k == "ser.reduction_pct"}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (load_runs(d) for d in argv)
    status = 0

    # Input identity, per (workload, seed), across both sets.
    seen = {}
    for run in before + after:
        ident = run["identity"]
        key = (ident["workload"], ident["seed"])
        hashes = [(c["name"], c["fnv1a"]) for c in ident["circuits"]]
        if key in seen and seen[key][0] != hashes:
            print(f"REFUSED: {key[0]} seed {key[1]} has different inputs in "
                  f"{seen[key][1]} and {run['path']}")
            return 3
        seen.setdefault(key, (hashes, run["path"]))

    # Deterministic values, per (workload, seed, traced).
    answers = {}
    for run in before + after:
        ident = run["identity"]
        key = (ident["workload"], ident["seed"], run["trace"])
        values = deterministic(run)
        if key in answers and answers[key][0] != values:
            diff = sorted(k for k in values
                          if values[k] != answers[key][0].get(k))
            print(f"ANSWER CHANGED: {key[0]} seed {key[1]}: {', '.join(diff)} "
                  f"({answers[key][1]} vs {run['path']})")
            status = 1
        answers.setdefault(key, (values, run["path"]))

    print(f"{'workload':14s} {'metric':18s} {'before q1/med/q3':>32s} "
          f"{'after q1/med/q3':>32s} {'change':>8s}  verdict")
    workloads = sorted({r["identity"]["workload"] for r in before + after})
    for workload in workloads:
        for name, spec in END_TO_END.items():
            sides = []
            for runs in (before, after):
                sides.append([r["result"]["metrics"][name]["value"]
                              for r in runs if not r["trace"] and
                              r["identity"]["workload"] == workload])
            if not sides[0] or not sides[1]:
                continue
            b, a = quartiles(sides[0]), quartiles(sides[1])
            change = (a[1] - b[1]) / b[1]
            worse = change if spec["better"] == "lower" else -change
            spread = (b[2] - b[0]) / b[1]
            if worse > spec["bound"]:
                verdict = f"WORSE (bound {spec['bound']:.0%})"
                status = 1
            elif spread > spec["bound"]:
                verdict = f"unresolved (spread {spread:.1%})"
            else:
                verdict = "ok"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{workload:14s} {name:18s} {fmt(b):>32s} {fmt(a):>32s} "
                  f"{change:>+8.1%}  {verdict} (n={len(sides[0])}/{len(sides[1])})")
    return status


with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _f:
    END_TO_END = {m["name"]: m for m in json.load(_f)["end_to_end"]}

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
