#!/usr/bin/env python3
"""Perf-trajectory check: diff a fresh BENCH_kernels.json against the
committed baseline and report per-op regressions.

Each record is keyed by (op, size); the metric is ns_per_iter (lower is
better).  Ops present on only one side are listed but never fail the
check — benchmarks come and go across PRs.

How rows compare depends on where the two files were recorded.  A file
written by bench_kernels carries a fingerprint of its host and build: CPU
model, logical cores, resolved kernel threads, compiler and flags.  An
older bare-array file carries none and counts as recorded elsewhere.

* Same fingerprint: rows compare in absolute terms, fresh ns against
  baseline ns.
* Different or missing fingerprint: each gated row's fresh/baseline ratio
  is divided by a reference ratio measured in the same run, and the
  quotient is what meets the threshold.  BM_Matmul/n takes
  BM_MatmulSeedScalar/n (the seed's scalar loop, same arithmetic); every
  other row takes the host factor: the median, over the ops with gated
  rows that the fresh run timed without the thread pool, of each op's
  median ratio (over all gated rows for a file that does not say which ran
  inline).  Rows the pool speeds up read the host's core count as well as
  its speed, and on a host with more cores than the baseline's they would
  drag the median down until every single-threaded row looked slow.  One
  vote per op keeps a kernel timed at four sizes from lifting its own
  reference when it slows down.  The limits: a slowdown that hits every
  op alike reads as a slower host and passes, and a pooled row can hide a
  slowdown up to its speedup from the extra cores.
* BM_HaloExchange times how fast the host wakes a blocked thread more than
  any code, so it is gated by its ratio to BM_HaloPingPong from the same
  run: against the baseline's ratio when the baseline has a ping-pong row,
  else against the bound 1.0 (in a 1x2 exchange step each rank blocks at
  most once; a round trip blocks twice).

Reference rows (the seed loop, the ping-pong) time no library code; they
are reported, never gated.

With --run, the bench runs three times and each row's median over the
passes is written to --fresh and diffed.

Exit status: 0 when no op regressed beyond --threshold, 1 otherwise, 2 on
usage/IO errors.  Typical use:

    ./build/bench_kernels                       # writes ./BENCH_kernels.json
    python3 tools/bench_diff.py --fresh BENCH_kernels.json

or via the CMake convenience target (runs the bench first):

    cmake --build build --target bench_diff
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

# Gated op -> the reference op of the same size it is normalized by on a
# foreign host.
SAME_SIZE_REFERENCE = {"BM_Matmul": "BM_MatmulSeedScalar"}
HALO, PING_PONG = "BM_HaloExchange", "BM_HaloPingPong"
REFERENCE_OPS = set(SAME_SIZE_REFERENCE.values()) | {PING_PONG}
# A 1x2 exchange step blocks each rank at most once, a round trip twice.
HALO_BOUND = 1.0
# --run times the bench this often and diffs each row's median.  A shared
# host has slow stretches lasting seconds to minutes; one then lands on
# one pass of the rows it overlaps instead of on their only measurement.
RUN_PASSES = 3


def die(message):
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)  # infrastructure error, distinct from exit 1 = regression


def read(path):
    """Returns (fingerprint or None, records) of a BENCH_kernels.json."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")
    if isinstance(data, list):  # bare array: written before fingerprints
        return None, data
    return data.get("fingerprint"), data.get("records", [])


def median_of_passes(passes):
    """One file's worth of records: each row's median over the passes, and
    `inline` only when every pass ran it without the pool."""
    rows = {}
    for _, records in passes:
        for r in records:
            rows.setdefault((r["op"], int(r.get("size", 0))), []).append(r)
    return {"fingerprint": passes[0][0], "records": [
        {"op": op, "size": size,
         "ns_per_iter": statistics.median(r["ns_per_iter"] for r in rs),
         "items_per_second": statistics.median(
             r.get("items_per_second", 0.0) for r in rs),
         "inline": all(r.get("inline", False) for r in rs)}
        for (op, size), rs in rows.items()]}


def load(path):
    """Returns (fingerprint or None, {(op, size): ns_per_iter}, the keys of
    the rows recorded as run without the thread pool)."""
    fingerprint, records = read(path)
    table, ran_inline = {}, set()
    for r in records:
        key = (r["op"], int(r.get("size", 0)))
        table[key] = float(r["ns_per_iter"])
        if r.get("inline"):
            ran_inline.add(key)
    return fingerprint, table, ran_inline


def name(key):
    op, size = key
    return f"{op}/{size}" if size else op


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline",
        default=os.path.join(repo_root, "BENCH_kernels.json"),
        help="committed baseline JSON (default: repo-root BENCH_kernels.json)",
    )
    ap.add_argument(
        "--fresh",
        default="BENCH_kernels.json",
        help="freshly produced JSON to compare (default: ./BENCH_kernels.json)",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        # Run-to-run noise on the 1-CPU reference host reaches ~15-17% on
        # the small benches (see BM_MatmulSeedScalar across committed
        # baselines), so the default must sit clearly above that.
        help="percent slowdown that counts as a regression (default: 25)",
    )
    ap.add_argument(
        "--ignore",
        metavar="REGEX",
        # Some benches measure scheduling races rather than kernel speed —
        # e.g. how an 8-request burst happens to split between two serve
        # workers on a 1-core host — and swing far beyond any honest
        # threshold run to run.  They stay in the JSON (the trend is still
        # inspectable) but must not gate the perf ctest.
        help="benchmark names (op/size) matching this regex are reported "
        "but never counted as regressions",
    )
    ap.add_argument(
        "--run",
        metavar="BENCH_BINARY",
        help="run this bench_kernels binary first (producing --fresh in its "
        "working directory), then diff — lets ctest register the whole "
        "bench+diff pipeline as one test",
    )
    args = ap.parse_args()

    if args.run:
        # The binary hardcodes its output name, writing BENCH_kernels.json
        # into its cwd; run it where --fresh expects the file to land, and
        # refuse a mismatched basename outright — otherwise a stale file at
        # --fresh would be diffed as if it came from this run.
        if os.path.basename(args.fresh) != "BENCH_kernels.json":
            die(
                f"--run writes BENCH_kernels.json; --fresh points at "
                f"{args.fresh}, which that run would never produce"
            )
        workdir = os.path.dirname(os.path.abspath(args.fresh)) or "."
        passes = []
        for _ in range(RUN_PASSES):
            run_start = time.time()
            try:
                proc = subprocess.run([os.path.abspath(args.run)],
                                      cwd=workdir)
            except OSError as e:
                die(f"cannot run {args.run}: {e}")
            if proc.returncode != 0:
                die(f"{args.run} exited with status {proc.returncode}")
            # The binary exits 0 even when it skipped or failed the JSON
            # write (empty writer under --benchmark_filter, read-only file,
            # full disk).  Diffing a stale file would be a silent false
            # pass in the perf gate, so demand each run refreshed the file.
            try:
                fresh_mtime = os.path.getmtime(os.path.abspath(args.fresh))
            except OSError as e:
                die(f"{args.run} produced no {args.fresh}: {e}")
            if fresh_mtime < run_start:
                die(f"{args.fresh} was not refreshed by {args.run} — "
                    "stale results refused")
            passes.append(read(args.fresh))
        try:
            with open(args.fresh, "w") as f:
                json.dump(median_of_passes(passes), f, indent=1)
        except OSError as e:
            die(f"cannot write {args.fresh}: {e}")

    base_fp, base, _ = load(args.baseline)
    fresh_fp, fresh, fresh_inline = load(args.fresh)

    common = sorted(set(base) & set(fresh))
    added = sorted(set(fresh) - set(base))
    removed = sorted(set(base) - set(fresh))
    if not common:
        die("no common (op, size) entries to compare")

    try:
        ignore = re.compile(args.ignore) if args.ignore else None
    except re.error as e:
        die(f"bad --ignore regex: {e}")

    same_host = base_fp is not None and base_fp == fresh_fp
    ratio = {k: fresh[k] / base[k] if base[k] > 0 else 1.0 for k in common}
    ping_pong = (PING_PONG, 0)

    def kind(key):
        if ignore and ignore.search(name(key)):
            return "ignored"
        if key[0] in REFERENCE_OPS:
            return "reference"
        if key[0] == HALO and ping_pong in fresh:
            return "halo"
        return "gated"

    gated = [k for k in common if kind(k) == "gated"]
    host_rows = [k for k in gated if k in fresh_inline] or gated
    by_op = {}
    for k in host_rows:
        by_op.setdefault(k[0], []).append(ratio[k])
    host_factor = (statistics.median(statistics.median(r)
                                     for r in by_op.values())
                   if by_op else 1.0)

    if same_host:
        print("same host fingerprint: absolute comparison")
    else:
        why = ("baseline has no fingerprint" if base_fp is None
               else "fingerprints differ")
        print(f"foreign host ({why}): ratios normalized by a reference "
              f"from the same run\n"
              f"  baseline: {base_fp}\n  fresh:    {fresh_fp}\n"
              f"  host factor {host_factor:.2f} "
              f"(median fresh/baseline over {len(by_op)} ops of "
              f"{len(host_rows)} gated rows"
              f"{' run without the pool' if host_rows != gated else ''})")
    print()

    def reference(key):
        """(label, factor) a gated row's ratio is divided by."""
        if same_host:
            return "-", 1.0
        ref = (SAME_SIZE_REFERENCE.get(key[0]), key[1])
        if ref in ratio:
            return name(ref), ratio[ref]
        return "host", host_factor

    width = max(len(name(k)) for k in common + added + removed)
    regressions = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'fresh':>12}  "
          f"{'ratio':>6}  {'reference':<24}  {'delta':>8}")
    for key in common:
        b, f = base[key], fresh[key]
        k = kind(key)
        if k == "halo":
            # Halo time over ping-pong time, both from one run.
            halo = f / fresh[ping_pong]
            if ping_pong in base:
                ref_label = "ping-pong ratio vs baseline"
                delta = (halo / (base[key] / base[ping_pong]) - 1.0) * 100.0
                failed = delta > args.threshold
            else:
                ref_label = f"ping-pong, bound {HALO_BOUND:.2f}"
                delta = (halo / HALO_BOUND - 1.0) * 100.0
                failed = halo > HALO_BOUND
            flag = (f"  halo/ping-pong {halo:.2f}"
                    + ("  << REGRESSION" if failed else ""))
            if failed:
                regressions.append((key, delta))
        elif k in ("ignored", "reference"):
            ref_label, flag = "-", f"  ({k})"
            delta = (ratio[key] - 1.0) * 100.0
        else:
            ref_label, factor = reference(key)
            delta = (ratio[key] / factor - 1.0) * 100.0
            flag = ""
            if delta > args.threshold:
                flag = "  << REGRESSION"
                regressions.append((key, delta))
            elif delta < -args.threshold:
                flag = "  (improved)"
        print(f"{name(key):<{width}}  {b:>10.0f}ns  {f:>10.0f}ns  "
              f"{ratio[key]:>6.2f}  {ref_label:<24}  {delta:>+7.1f}%{flag}")

    for key in added:
        print(f"{name(key):<{width}}  {'-':>12}  {fresh[key]:>10.0f}ns  (new)")
    for key in removed:
        print(f"{name(key):<{width}}  {base[key]:>10.0f}ns  {'-':>12}  (removed)")

    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond {args.threshold:.0f}%: "
            + ", ".join(f"{name(k)} {d:+.1f}%" for k, d in regressions)
        )
        return 1
    print(f"\nno regressions beyond {args.threshold:.0f}% "
          f"({len(common)} benchmarks compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
