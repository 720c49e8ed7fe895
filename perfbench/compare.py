#!/usr/bin/env python3
"""A/B-compare two source trees on the benchmark, with its own bounds.

Usage:
    python3 perfbench/compare.py --base PARENT_TREE --cand CHANGE_TREE
                                 [--pairs 10] [--workload W ...]
                                 [--seconds S] [--first-seed N]

Both trees are built and run by this checkout's perfbench, so the two
sides share identical benchmark code. For every workload it runs
--pairs pairs of untraced runs, seed first-seed+i for pair i, swapping
which side goes first on every pair. It then reports, for each
end-to-end metric of BENCHMARK.json, each side's median and quartiles,
how many pairs the candidate won, and a verdict:

  regression  the candidate's median is worse by more than the bound
  unresolved  the base's own quartile spread exceeds the bound, and not
              every candidate run beats every base run
  gain        the candidate won at least 9/10 of the pairs and the
              medians differ by more than the base's quartile spread
  same        none of the above

One traced run per side (seed first-seed) then compares the modeled
simt.* counts, which must be exactly equal except on serve-mix, where
which requests execute depends on timing. Exit status: 0 = no
regression, 1 = a regression, a failed check on either side, more
failures on the candidate, or a modeled count that moved; 2 = usage.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMING_DEPENDENT_MODEL = {"serve-mix"}


def run(side, tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--src-root", tree,
           "--build-dir", os.path.join(ROOT, ".bench_build", "ab-" + side)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"compare.py: {side} run of {workload} seed {seed} "
                 f"printed no result (exit {p.returncode})")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, base, cand):
    """Applies the rules in the module docstring to one metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(cand)
    worse = (cm - bm) / bm if lower else (bm - cm) / bm
    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, cand))
    all_better = (max(cand) < min(base)) if lower else (min(cand) > max(base))
    if worse > bound:
        v = "regression"
    elif (b3 - b1) / bm > bound and not all_better:
        v = "unresolved"
    elif wins >= 0.9 * len(base) and abs(cm - bm) > (b3 - b1):
        v = "gain"
    else:
        v = "same"
    return v, wins, worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent source tree")
    ap.add_argument("--cand", required=True, help="candidate source tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    trees = {"base": os.path.abspath(args.base),
             "cand": os.path.abspath(args.cand)}
    bad = []

    for w in workloads:
        results = {"base": [], "cand": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
            for side in order:
                results[side].append(
                    run(side, trees[side], w, seed, seconds, 0))
        failed = {s: sum(r["failed"] for r in rs) for s, rs in results.items()}
        incorrect = [s for s, rs in results.items()
                     if not all(r["correct"] for r in rs)]
        if incorrect:
            bad.append(f"{w}: failed checks on {', '.join(incorrect)}")
        if failed["cand"] > failed["base"]:
            bad.append(f"{w}: failures rose {failed['base']} -> "
                       f"{failed['cand']}")
        print(f"== {w} ({args.pairs} pairs, {seconds:g} s runs)")
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [r["metrics"][name]["value"] for r in results["base"]]
            cand = [r["metrics"][name]["value"] for r in results["cand"]]
            v, wins, worse = verdict(m, base, cand)
            b1, bm, b3 = quartiles(base)
            c1, cm, c3 = quartiles(cand)
            print(f"  {name:14s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"cand {cm:.6g} [{c1:.6g}, {c3:.6g}] {m['unit']}  "
                  f"worse {worse * 100:+.1f}% (bound {m['bound'] * 100:g}%)  "
                  f"wins {wins}/{len(base)}  {v}")
            if v == "regression":
                bad.append(f"{w}: {name} worse by {worse * 100:.1f}%")

        if w in TIMING_DEPENDENT_MODEL:
            continue
        traced = {s: run(s, trees[s], w, args.first_seed, seconds, 1)
                  for s in ("base", "cand")}
        for m in spec["per_layer"]:
            name = m["name"]
            if not name.startswith("simt."):
                continue
            b = traced["base"]["metrics"][name]["value"]
            c = traced["cand"]["metrics"][name]["value"]
            if b != c:
                bad.append(f"{w}: modeled {name} moved {b!r} -> {c!r}")

    for b in bad:
        print(f"FAIL: {b}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
