#!/usr/bin/env python3
"""Alternated parent/change runs of the repo benchmark, with a verdict.

    python3 scripts/perf_pairs.py --parent <dir> --change <dir> \\
        [--workloads fleet_scan,openloop_short] [--seeds 1-10] \\
        [--seconds 10] [--trace 0|1] [--out runs.json]

<dir> are two source checkouts (for example `git archive` copies of the
parent commit and of the change). For every workload and seed in the
range, the script runs `python3 perfbench/run.py` once in each checkout,
alternating which side goes first (odd seeds run the parent first), and
reads the JSON result on each run's last stdout line. The first run in a
checkout also builds its benchmark.

For each workload and metric it prints both medians with their quartiles,
the number of pairs the change won, and a verdict that follows the rules
of BENCHMARK.json (read from the change checkout):

  unresolved   either side's spread (IQR / median) exceeds the metric's
               bound, so the runs cannot tell;
  gain         the change is better on at least 9 of 10 pairs and its
               median is better by more than the parent's IQR;
  worse        the change's median is worse than the parent's by more
               than the bound (relative);
  within bound otherwise.

Metrics without a bound (the per-layer ones of --trace 1) only report
"gain" or "-". Exit status: 0 when every run reported `correct: true`
with 0 failed, 1 otherwise, 2 on a usage error or a run that produced
no result. Standard library only.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'3' -> [3]; '1-10' -> [1, ..., 10]."""
    first, _, last = text.partition("-")
    lo, hi = int(first), int(last or first)
    if lo < 0 or hi < lo:
        raise ValueError(f"bad seed range {text!r}")
    return list(range(lo, hi + 1))


def quartiles(values):
    """(q1, median, q3) of a non-empty list; inclusive quantiles."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def wins(parent, change, better):
    """Pairs (same seed) on which the change is strictly better."""
    if better == "lower":
        return sum(1 for p, c in zip(parent, change) if c < p)
    return sum(1 for p, c in zip(parent, change) if c > p)


def spread(values):
    """IQR relative to the median (inf when the median is 0)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def verdict(parent, change, better, bound):
    """Verdict of one metric over paired runs; see the module docs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of runs per side")
    if better not in ("lower", "higher"):
        raise ValueError(f"bad direction {better!r}")
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = pmed - cmed if better == "lower" else cmed - pmed
    won = wins(parent, change, better)
    gain = won * 10 >= 9 * len(parent) and gap > p3 - p1
    if bound is None:
        return "gain" if gain else "-"
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    if gain:
        return "gain"
    if pmed != 0 and -gap / abs(pmed) > bound:
        return "worse"
    return "within bound"


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    # A run whose checks fail still prints its result (and exits 1); only
    # a run without one stops the comparison.
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perf_pairs: {workload} seed {seed} in {checkout} exited "
              f"{done.returncode} without a result", file=sys.stderr)
        sys.exit(2)
    # The benchmark's notes say why a check failed.
    result["notes"] = [line for line in lines[:-1] if line.startswith("#")]
    return result


def fmt(value):
    return f"{value:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path)
    parser.add_argument("--change", required=True, type=pathlib.Path)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path,
                        help="also write every run's result here (JSON)")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec.get("per_layer", [])}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)

    runs = {}
    ok = True
    for workload in workloads:
        side = {"parent": [], "change": []}
        for seed in seeds:
            order = ["parent", "change"] if seed % 2 else ["change", "parent"]
            for name in order:
                checkout = args.parent if name == "parent" else args.change
                result = run_once(checkout, workload, seed, args.seconds,
                                  args.trace)
                if not result.get("correct") or result.get("failed", 1) > 0:
                    ok = False
                    print(f"{workload} seed {seed} {name}: correct="
                          f"{result.get('correct')} failed="
                          f"{result.get('failed')}", file=sys.stderr)
                    for note in result["notes"]:
                        if "FAILED" in note or "MISMATCH" in note:
                            print(f"  {note}", file=sys.stderr)
                side[name].append(result)
        runs[workload] = side
        if args.out is not None:
            args.out.write_text(json.dumps(runs, indent=1))

        print(f"\n{workload} (seeds {args.seeds}, {args.seconds} s)")
        print(f"  {'metric':44} {'parent median [IQR]':>28} "
              f"{'change median [IQR]':>28} {'won':>6}  verdict")
        for metric, (better, bound) in rules.items():
            parent = [r["metrics"][metric]["value"] for r in side["parent"]
                      if metric in r.get("metrics", {})]
            change = [r["metrics"][metric]["value"] for r in side["change"]
                      if metric in r.get("metrics", {})]
            if not parent or len(parent) != len(change):
                continue
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            print(f"  {metric:44} "
                  f"{fmt(pm) + ' [' + fmt(p1) + '-' + fmt(p3) + ']':>28} "
                  f"{fmt(cm) + ' [' + fmt(c1) + '-' + fmt(c3) + ']':>28} "
                  f"{wins(parent, change, better):>3}/{len(parent):<2}  "
                  f"{verdict(parent, change, better, bound)}", flush=True)

    if not ok:
        print("perf_pairs: some runs were not correct or had failures",
              file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
