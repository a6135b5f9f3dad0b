#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results: a parent and a change.

    compare.py PARENT_RESULTS CHANGE_RESULTS
    compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs 10]
               [--workload W ...] [--seed0 N] [--trace 0|1]

A result set is a directory of the JSON records bench/e2e/run.py saves
(--save DIR, default .bench_build/e2e/results).  With --run, the two
checkouts' run.py are driven in pairs with alternating order (the parent
goes first in even pairs, the change in odd ones), each pair on its own
seed, and the sets are then compared.

Runs are paired by (workload, seed).  For every metric of every workload
the report gives each side's median and quartiles and the share of pairs
the change won (ties count for neither), then a verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, whatever the spread;
  unresolved  not worse, but a side's quartile spread exceeds the bound,
              so "no regression" cannot be shown — unless every change
              run beats every parent run;
  better      the change won >= 90% of the pairs and the medians differ by
              more than the parent's own quartile spread, or every change
              run beats every parent run;
  worse within bound
              the mirror of "better": the parent won >= 90% of the pairs
              and the medians differ by more than its quartile spread,
              but by less than the bound — a real slowdown the bound
              tolerates;
  unchanged   none of the above.

Failures are gated on their own: a workload is worse when the change's
failed/attempted, pooled over all its runs, exceeds the parent's by more
than 0.005.  A gain does not count when more operations failed than at
the parent.  Per-layer metrics carry no bound: they are reported as
better, worse or unchanged by the gain rule and its mirror alone, and do
not set the exit status.  One row per workload comes first, the details
after.  Exit status: 1 when a workload's failures or any bounded metric
is worse, else 3 when any bounded metric is unresolved, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# Fingerprint fields that must match for times to be comparable, and the
# digests that change when the numerics do.
HOST_KEYS = ("cpu_model", "nproc", "kernel_threads", "compiler",
             "library_flags")
NUMERIC_KEYS = ("weights_digest", "archive_digest")
# How far the change's failed/attempted, pooled over its runs, may exceed
# the parent's before the change counts as worse.
FAILED_FRAC_BOUND = 0.005


def load_set(path):
    runs = []
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        if f.endswith(".trace.json"):
            continue
        with open(f) as fh:
            runs.append(json.load(fh))
    if not runs:
        sys.exit(f"compare.py: no results in {path}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, lower_is_better, bound, failed_more):
    """parent/change: paired value lists.  Returns (verdict, wins, pairs)."""
    def better(c, p):
        return c < p if lower_is_better else c > p

    wins = sum(better(c, p) for p, c in zip(parent, change))
    losses = sum(better(p, c) for p, c in zip(parent, change))
    q1p, mp, q3p = quartiles(parent)
    q1c, mc, q3c = quartiles(change)
    pairs = len(parent)
    gain = (wins >= 0.9 * pairs and better(mc, mp)
            and abs(mc - mp) > q3p - q1p and not failed_more)
    loss = (losses >= 0.9 * pairs and better(mp, mc)
            and abs(mc - mp) > q3p - q1p)
    if bound is None:
        return ("better" if gain else "worse" if loss else "unchanged"), \
            wins, pairs
    worse_by = ((mc - mp) if lower_is_better else (mp - mc)) / abs(mp) \
        if mp else 0.0
    if worse_by > bound:
        return "worse", wins, pairs
    every_run_better = all(better(c, p) for c in change for p in parent)
    spread = max((q3p - q1p) / abs(mp) if mp else 0.0,
                 (q3c - q1c) / abs(mc) if mc else 0.0)
    if spread > bound and not every_run_better:
        return "unresolved", wins, pairs
    if gain or every_run_better and not failed_more:
        return "better", wins, pairs
    return ("worse within bound" if loss else "unchanged"), wins, pairs


def compare(parent_runs, change_runs, spec):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better_is_lower = {m["name"]: m["better"] == "lower"
                       for m in spec["end_to_end"] + spec["per_layer"]}
    order = [w["name"] for w in spec["workloads"]]

    for key in HOST_KEYS + NUMERIC_KEYS:
        p = {r["fingerprint"].get(key) for r in parent_runs}
        c = {r["fingerprint"].get(key) for r in change_runs}
        if p != c:
            kind = "host" if key in HOST_KEYS else "numerics"
            print(f"note: {kind} fingerprint differs in {key}: "
                  f"{sorted(map(str, p))} vs {sorted(map(str, c))}")

    rows, details, verdicts = [], [], set()
    for workload in order:
        pmap = {r["seed"]: r for r in parent_runs if r["workload"] == workload}
        cmap = {r["seed"]: r for r in change_runs if r["workload"] == workload}
        seeds = sorted(set(pmap) & set(cmap))
        if not seeds:
            continue
        failed_p = sum(pmap[s]["failed"] for s in seeds)
        failed_c = sum(cmap[s]["failed"] for s in seeds)
        frac_p = failed_p / max(1, sum(pmap[s]["attempted"] for s in seeds))
        frac_c = failed_c / max(1, sum(cmap[s]["attempted"] for s in seeds))
        names = [m for m in pmap[seeds[0]]["metrics"]
                 if m in better_is_lower and m in cmap[seeds[0]]["metrics"]]
        # Failures over all runs pooled: a change that fails in a few runs
        # leaves the per-run median of success_frac at 1.
        v = "worse" if frac_c - frac_p > FAILED_FRAC_BOUND else "unchanged"
        verdicts.add(v)
        cells = [f"failed {100 * frac_c:.2f}% {v}"]
        details.append(f"{workload}  ({len(seeds)} pairs; failed "
                       f"{failed_p} parent, {failed_c} change: "
                       f"{100 * frac_p:.2f}% vs {100 * frac_c:.2f}% of "
                       f"attempted, bound +{100 * FAILED_FRAC_BOUND:g}%"
                       f"  -> {v})")
        for m in names:
            p = [pmap[s]["metrics"][m]["value"] for s in seeds]
            c = [cmap[s]["metrics"][m]["value"] for s in seeds]
            v, wins, pairs = verdict(p, c, better_is_lower[m], bounds.get(m),
                                     failed_c > failed_p)
            if m in bounds:
                verdicts.add(v)
            q1p, mp, q3p = quartiles(p)
            q1c, mc, q3c = quartiles(c)
            delta = 100.0 * (mc - mp) / abs(mp) if mp else 0.0
            if m in bounds:
                cells.append(f"{m} {delta:+.1f}% {v}")
            bound = bounds.get(m)
            details.append(
                f"  {m:32s} parent {mp:.4g} [{q1p:.4g}, {q3p:.4g}]  "
                f"change {mc:.4g} [{q1c:.4g}, {q3c:.4g}]  {delta:+.1f}%  "
                f"won {wins}/{pairs}  "
                f"{'bound ' + format(bound, 'g') if bound else 'no bound'}"
                f"  -> {v}")
        rows.append(f"{workload:14s} " + " | ".join(cells))
    print("\n".join(rows))
    print()
    print("\n".join(details))
    return 1 if "worse" in verdicts else 3 if "unresolved" in verdicts else 0


def run_pairs(args):
    sets = []
    for root in (args.run[0], args.run[1]):
        d = os.path.join(os.path.abspath(root), ".bench_build", "e2e",
                         "results", "compare")
        os.makedirs(d, exist_ok=True)
        for f in glob.glob(os.path.join(d, "*.json")):
            os.remove(f)
        sets.append((os.path.abspath(root), d))
    for i in range(args.pairs):
        seed = args.seed0 + i
        sides = sets if i % 2 == 0 else sets[::-1]
        for workload in args.workload:
            for root, out in sides:
                cmd = ["python3", "bench/e2e/run.py", "--workload", workload,
                       "--seed", str(seed), "--trace", str(args.trace),
                       "--save", out]
                r = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL)
                if r.returncode != 0:
                    sys.exit(f"compare.py: {root}: {workload} seed {seed} "
                             f"exited {r.returncode}")
    return sets[0][1], sets[1][1]


def main():
    parser = argparse.ArgumentParser(
        description="compare parent and change benchmark results")
    parser.add_argument("sets", nargs="*", metavar="RESULTS",
                        help="parent and change result directories")
    parser.add_argument("--run", nargs=2, metavar="CHECKOUT",
                        help="run parent and change checkouts in pairs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.run:
        args.workload = args.workload or [w["name"] for w in spec["workloads"]]
        parent, change = run_pairs(args)
    elif len(args.sets) == 2:
        parent, change = args.sets
    else:
        parser.error("give two result directories, or --run")
    return compare(load_set(parent), load_set(change), spec)


if __name__ == "__main__":
    sys.exit(main())
