#!/usr/bin/env python3
"""End-to-end benchmark of the coastal forecasting stack.

Builds bench/e2e (a standalone CMake project around the library) under
.bench_build/e2e in the checkout, runs each workload in its own process,
checks its outputs, and prints every metric as `name value unit`.  The
last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (or, with --trace 1, the
per-layer ones).  Each run is also saved, with a host fingerprint, under
.bench_build/e2e/results for compare.py.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/e2e/run.py --seed 1 --workload serve_unique
    python3 bench/e2e/run.py --seed 1 --workload hindcast_12d --trace 1
    python3 bench/e2e/run.py --seed 1 --smoke        # every workload, 1/10 time
    python3 bench/e2e/run.py --seed 1 --workload serve_live --self-test  # must fail

Exit status: 0 when every output check passed, 1 when one failed (or
--self-test tripped it), 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "cmake", "bench_e2e")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot read BENCHMARK.json: {e}")


def child_env():
    # Compilers and the benchmark keep their scratch files in the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    env = child_env()
    if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
        # A cache left by a checkout elsewhere cannot be reused.
        shutil.rmtree(cmake_dir, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            die("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        die("build failed")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_head():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_workload(spec, name, args, seconds):
    """Run one workload in its own process; returns its parsed result."""
    traced = args.trace == 1
    stamp = f"{name}.t{args.trace}.s{args.seed}.{os.getpid()}"
    work = os.path.join(BUILD, "work", stamp)
    results = args.save or os.path.join(BUILD, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--work", work,
           "--trace", str(args.trace), "--setups", "1" if args.smoke else "3"]
    spans_path = os.path.join(results, stamp + ".trace.json")
    if traced:
        cmd += ["--spans", spans_path]
    if args.self_test:
        cmd.append("--self-test")
    t0 = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{name}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        die(f"{name}: the benchmark exited {proc.returncode} without a result")

    key = "per_layer" if traced else "end_to_end"
    wanted = [m["name"] for m in spec[key]]
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        die(f"{name}: metrics missing from the result: {missing}")
    result["fingerprint"].update({
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "git_head": git_head()})
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    if traced:
        print(f"spans {os.path.relpath(spans_path, ROOT)} "
              f"(render with tools/trace_view.py)")
    record = {"workload": name, "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "started": t0,
              "wall_s": time.time() - t0, **result}
    with open(os.path.join(results, stamp + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m: {"value": result["metrics"][m]["value"],
                        "unit": result["metrics"][m]["unit"]}
                    for m in wanted},
    }


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark (see bench/e2e/README.md)")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, required=True,
                        help="drives the generated inputs only")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measured time per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="harness check: 1/10 of the time, one set-up")
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one checked output; must exit 1")
    parser.add_argument("--save", help="directory for the saved results")
    args = parser.parse_args()
    seconds = args.seconds / 10 if args.smoke else args.seconds
    if not seconds > 0:
        die("--seconds must be positive")

    build()
    ok = True
    for name in [args.workload] if args.workload else names:
        out = run_workload(spec, name, args, seconds)
        ok = ok and out["correct"]
        print(json.dumps(out), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
