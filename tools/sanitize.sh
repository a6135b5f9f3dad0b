#!/usr/bin/env bash
# Sanitizer sweep: build the library and tests three times and run them
#
#   1. under ASan + UBSan (-DCOASTAL_SANITIZE=address,undefined): every
#      ctest except the host-bound perf gate, `ctest -E bench_diff` (the
#      memory-labeled suites re-run with the tensor pool disabled, so
#      pool and arena lifetime bugs are byte-precise reports);
#   2. under TSan (-DCOASTAL_SANITIZE=thread): the thread-labeled ctests,
#      `ctest -L thread` (serving, cache, obs, reliability, communicator,
#      concurrent surrogate forwards);
#   3. portable (-DCOASTAL_NATIVE_ARCH=OFF, no sanitizer): the solver,
#      workflow and surrogate suites, so the no-FMA builds of the ROMS
#      solver and the surrogate are checked against their bitwise digests.
#
# Usage: tools/sanitize.sh [build-root]      (default: build-sanitize/)
# Environment: JOBS (parallel build jobs, default: nproc).
#
# Any sanitizer report fails its test (UBSan does not recover, and the
# runtime options set halt_on_error); any failed configure, build or test
# makes the script exit non-zero after both sweeps have run.

set -uo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
root="${1:-$repo/build-sanitize}"
jobs="${JOBS:-$(nproc)}"
status=0

# sweep NAME SANITIZERS EXTRA_CXX_FLAGS NATIVE_ARCH CTEST_ARGS...
sweep() {
  local name="$1" sanitize="$2" flags="$3" native="$4"
  shift 4
  local dir="$root/$name"
  echo "== $name: -DCOASTAL_SANITIZE=$sanitize $flags" \
       "-DCOASTAL_NATIVE_ARCH=$native, ctest $*"
  if ! cmake -S "$repo" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCOASTAL_SANITIZE="$sanitize" -DCMAKE_CXX_FLAGS="$flags" \
      -DCOASTAL_NATIVE_ARCH="$native" \
      -DCOASTAL_BUILD_BENCH=OFF >"$dir.configure.log" 2>&1; then
    echo "!! $name: configure failed (see $dir.configure.log)"
    status=1
    return
  fi
  if ! cmake --build "$dir" -j "$jobs" >"$dir.build.log" 2>&1; then
    echo "!! $name: build failed (see $dir.build.log)"
    status=1
    return
  fi
  # Tests run one at a time: several suites assert wall-clock bounds
  # (deadlines, watchdog timeouts) that sanitizer slowdown on a host loaded
  # by parallel suites can break.
  if ! (cd "$dir" && ctest --output-on-failure "$@"); then
    echo "!! $name: tests failed"
    status=1
  fi
}

mkdir -p "$root"
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1:${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:${TSAN_OPTIONS:-}"

sweep asan-ubsan address,undefined \
  "-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS" ON -E bench_diff
sweep tsan thread "" ON -L thread
sweep portable "" "" OFF -R '^test_(ocean_solver|workflow|surrogate)$'

if [ "$status" -eq 0 ]; then
  echo "== sanitize: clean"
else
  echo "== sanitize: FAILED"
fi
exit "$status"
