#!/usr/bin/env bash
# Paper-path coverage: which library functions the paper's programs never
# run.
#
# Builds the library, the 5 examples and the 10 figure/table benches with
# --coverage (tests off), runs each program once, then reads the counts
# with `gcov --json-format`, one call per object file, and prints, per
# src/ file, every function that never ran, then the totals: executable
# library lines and how many of them never ran.  A function listed here
# stays in the library only for a reason given in docs/kernels.md
# ("Functions no paper path runs").
#
# Usage: tools/coverage.sh [build-dir]      (default: build-coverage/)
# Environment: JOBS (parallel build jobs, default: nproc).
#
# The programs run one after another with their usual defaults (the
# examples train briefly); expect 10-20 minutes on 4 cores.  Their output
# goes to <build-dir>/run.log.  Exits non-zero when the build or a
# program fails.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="${1:-$repo/build-coverage}"
mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
jobs="${JOBS:-$(nproc)}"

examples=(quickstart train_surrogate forecast_workflow tidal_simulation
          forecast_server)
benches=(bench_fig5_fields bench_fig6_timeseries bench_fig7_passrate
         bench_fig8_workflow bench_fig9_ablation bench_fig10_scaling
         bench_table1_overhead bench_table2_memory bench_table3_accuracy
         bench_table4_patchsize)
targets=("${benches[@]}")
for e in "${examples[@]}"; do targets+=("example_$e"); done

echo "== configure and build (--coverage) in $dir"
# No early inlining: GCC inlines small functions before it instruments,
# and a function inlined there keeps no count of its own, so accessors
# that run millions of times would read as never run.  Later inlining
# keeps the counters.
cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
      "-DCMAKE_CXX_FLAGS=--coverage -fno-early-inlining" \
      -DCOASTAL_BUILD_TESTS=OFF >"$dir/configure.log" 2>&1
cmake --build "$dir" -j "$jobs" --target "${targets[@]}" \
      >"$dir/build.log" 2>&1

# Counts from an earlier run would add up with this one's.
find "$dir" -name '*.gcda' -delete
mkdir -p "$dir/run"
: >"$dir/run.log"
for t in "${targets[@]}"; do
  echo "== run $t"
  (cd "$dir/run" && "$dir/$t") >>"$dir/run.log" 2>&1
done

echo "== gcov"
json="$dir/gcov-json"
rm -rf "$json"
mkdir -p "$json"
# One gcov call per object, -o naming that object's directory.
find "$dir" -name '*.gcda' -print0 |
  while IFS= read -r -d '' gcda; do
    (cd "$json" && gcov --json-format -o "$(dirname "$gcda")" "$gcda" \
      >/dev/null 2>&1)
  done

python3 - "$repo" "$json" <<'EOF'
import gzip, json, os, sys
from collections import defaultdict

repo, json_dir = sys.argv[1], sys.argv[2]
src = os.path.join(repo, "src") + os.sep
lines = defaultdict(int)  # (file, line) -> count, merged over objects
funcs = {}                # (file, start line) -> [name, count]
for name in os.listdir(json_dir):
    if not name.endswith(".gcov.json.gz"):
        continue
    with gzip.open(os.path.join(json_dir, name), "rt") as f:
        data = json.load(f)
    cwd = data.get("current_working_directory", "")
    for entry in data["files"]:
        path = os.path.normpath(os.path.join(cwd, entry["file"]))
        if not path.startswith(src):
            continue
        rel = os.path.relpath(path, repo)
        for ln in entry["lines"]:
            lines[(rel, ln["line_number"])] += ln["count"]
        for fn in entry["functions"]:
            key = (rel, fn["start_line"])
            slot = funcs.setdefault(key, [fn["demangled_name"], 0])
            slot[1] += fn["execution_count"]

never = defaultdict(list)
for (rel, start), (fname, count) in sorted(funcs.items()):
    if count == 0:
        never[rel].append((start, fname))
for rel in sorted(never):
    print(f"{rel}: {len(never[rel])} never-run function(s)")
    for start, fname in never[rel]:
        print(f"  {start:5d}  {fname}")
unrun = sum(1 for c in lines.values() if c == 0)
print(f"\nexecutable library lines {len(lines)}, never run {unrun}; "
      f"functions {len(funcs)}, never run "
      f"{sum(len(v) for v in never.values())}")
EOF
