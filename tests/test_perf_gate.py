#!/usr/bin/env python3
"""Tests for tools/bench_diff.py, the perf gate's comparison logic.

Runs the script on small synthetic BENCH_kernels.json files — no bench is
timed — and checks how it compares rows: absolute between equal host
fingerprints, host-normalized ratios otherwise.

    python3 tests/test_perf_gate.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_diff.py")

HOST_A = {"cpu": "Host A CPU", "logical_cores": "4", "kernel_threads": "4",
          "compiler": "gcc 12.2.0", "flags": "NDEBUG COASTAL_MARCH_NATIVE"}
HOST_B = dict(HOST_A, cpu="Host B CPU", logical_cores="1",
              kernel_threads="1")

# (op, size) -> ns_per_iter on the baseline host.
BASE = {
    ("BM_Matmul", 32): 1500.0,
    ("BM_Matmul", 64): 7700.0,
    ("BM_MatmulSeedScalar", 32): 5300.0,
    ("BM_MatmulSeedScalar", 64): 32800.0,
    ("BM_LayerNorm", 32): 16500.0,
    ("BM_SoftmaxLastDim", 64): 21000.0,
    ("BM_SolverStep", 20): 4900.0,
    ("BM_SolverStep", 32): 10100.0,
    ("BM_SolverStep", 64): 35600.0,
    ("BM_SolverStep", 128): 137000.0,
    ("BM_TrainStep", 0): 11900000.0,
    ("BM_AllocChurn", 64): 7800.0,
}


def records(table, pooled=()):
    """Records of `table`; ops in `pooled` are marked as run on the pool."""
    return [{"op": op, "size": size, "ns_per_iter": ns,
             "items_per_second": 0.0, "inline": op not in pooled}
            for (op, size), ns in table.items()]


def scaled(table, factor, **overrides):
    """Every row times `factor`, then per-row factors from `overrides`
    (keyword = op name, size-insensitive)."""
    out = {k: v * factor for k, v in table.items()}
    for op, extra in overrides.items():
        for key in out:
            if key[0] == op:
                out[key] *= extra
    return out


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, table, fingerprint, pooled=()):
        path = os.path.join(self.tmp.name, name)
        data = (records(table) if fingerprint is None else
                {"fingerprint": fingerprint,
                 "records": records(table, pooled)})
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def diff(self, base, base_fp, fresh, fresh_fp, pooled=()):
        proc = subprocess.run(
            [sys.executable, SCRIPT,
             "--baseline", self.write("base.json", base, base_fp),
             "--fresh", self.write("fresh.json", fresh, fresh_fp, pooled),
             "--threshold", "60"],
            capture_output=True, text=True)
        self.assertIn(proc.returncode, (0, 1), proc.stderr)
        return proc.returncode, proc.stdout

    def flagged(self, out):
        """Names in the closing 'N regression(s) ...' line."""
        m = re.search(r"regression\(s\) beyond \d+%: (.*)$", out, re.M)
        return re.findall(r"(\S+) [+-]\d", m.group(1)) if m else []

    def test_matching_fingerprints_compare_absolute(self):
        code, out = self.diff(BASE, HOST_A, BASE, HOST_A)
        self.assertEqual(code, 0, out)
        self.assertIn("absolute comparison", out)
        # In absolute terms a uniform 2x is a regression of every gated row.
        code, out = self.diff(BASE, HOST_A, scaled(BASE, 2.0), HOST_A)
        self.assertEqual(code, 1, out)
        self.assertIn("BM_LayerNorm/32", self.flagged(out))
        self.assertIn("BM_SolverStep/20", self.flagged(out))
        # Reference rows time no library code and never gate.
        self.assertNotIn("BM_MatmulSeedScalar/32", self.flagged(out))

    def test_bare_array_baseline_loads_as_foreign(self):
        code, out = self.diff(BASE, None, BASE, HOST_A)
        self.assertEqual(code, 0, out)
        self.assertIn("baseline has no fingerprint", out)
        self.assertIn("BM_LayerNorm/32", out)

    def test_uniform_2x_on_foreign_host_passes(self):
        code, out = self.diff(BASE, None, scaled(BASE, 2.0), HOST_B)
        self.assertEqual(code, 0, out)
        factor = float(re.search(r"host factor (\d+\.\d+)", out).group(1))
        self.assertAlmostEqual(factor, 2.0, delta=0.05)

    def test_one_row_4x_on_foreign_host_fails_and_is_named(self):
        code, out = self.diff(BASE, None,
                              scaled(BASE, 2.0, BM_LayerNorm=2.0), HOST_B)
        self.assertEqual(code, 1, out)
        self.assertEqual(self.flagged(out), ["BM_LayerNorm/32"])

    def test_host_factor_comes_from_rows_run_without_the_pool(self):
        # More cores than the baseline host: the pooled rows run 4x faster,
        # the single-threaded ones 1.3x slower.  The pooled rows must not
        # drag the host factor down until the others read as regressions.
        pooled = ("BM_SoftmaxLastDim", "BM_TrainStep", "BM_AllocChurn",
                  "BM_Matmul")
        fresh = scaled(BASE, 1.3, **{op: 0.25 / 1.3 for op in pooled})
        code, out = self.diff(BASE, None, fresh, HOST_B, pooled)
        self.assertEqual(code, 0, out)
        factor = float(re.search(r"host factor (\d+\.\d+)", out).group(1))
        self.assertAlmostEqual(factor, 1.3, delta=0.05)
        self.assertIn("run without the pool", out)

    def test_a_kernel_timed_at_several_sizes_cannot_lift_its_reference(self):
        # The solver's four sizes outnumber the other inline rows here;
        # counted row by row, its own 2x would set the host factor and
        # hide itself.
        base = {k: v for k, v in BASE.items()
                if k[0] in ("BM_SolverStep", "BM_LayerNorm",
                            "BM_SoftmaxLastDim", "BM_AllocChurn")}
        code, out = self.diff(base, None,
                              scaled(base, 1.3, BM_SolverStep=2.0), HOST_B)
        self.assertEqual(code, 1, out)
        self.assertEqual(self.flagged(out),
                         ["BM_SolverStep/20", "BM_SolverStep/32",
                          "BM_SolverStep/64", "BM_SolverStep/128"])

    def test_matmul_is_normalized_by_the_seed_loop(self):
        # The seed loop and the GEMM slow down together: a slower host.
        code, out = self.diff(
            BASE, None,
            scaled(BASE, 1.0, BM_Matmul=3.0, BM_MatmulSeedScalar=3.0), HOST_B)
        self.assertEqual(code, 0, out)
        # The GEMM alone slows down: a regression, even though the median
        # host factor is 1.
        code, out = self.diff(BASE, None, scaled(BASE, 1.0, BM_Matmul=3.0),
                              HOST_B)
        self.assertEqual(code, 1, out)
        self.assertEqual(self.flagged(out), ["BM_Matmul/32", "BM_Matmul/64"])

    def test_run_diffs_each_rows_median_over_passes(self):
        # A stand-in bench: every pass writes BASE, except that the second
        # pass runs BM_LayerNorm 5x slower and on the pool.
        counter = os.path.join(self.tmp.name, "passes")
        bench = os.path.join(self.tmp.name, "bench")
        with open(bench, "w") as f:
            f.write(f"""#!{sys.executable}
import json, os
n = len(open({counter!r}).read()) if os.path.exists({counter!r}) else 0
open({counter!r}, "a").write("x")
records = {records(BASE)!r}
for r in records:
    if n == 1 and r["op"] == "BM_LayerNorm":
        r["ns_per_iter"] *= 5
        r["inline"] = False
json.dump({{"fingerprint": {HOST_B!r}, "records": records}},
          open("BENCH_kernels.json", "w"))
""")
        os.chmod(bench, 0o755)
        fresh = os.path.join(self.tmp.name, "BENCH_kernels.json")
        proc = subprocess.run(
            [sys.executable, SCRIPT, "--run", bench,
             "--baseline", self.write("base.json", BASE, None),
             "--fresh", fresh, "--threshold", "60"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(counter) as f:
            self.assertEqual(f.read(), "xxx")
        with open(fresh) as f:
            merged = json.load(f)
        ln = next(r for r in merged["records"] if r["op"] == "BM_LayerNorm")
        self.assertEqual(ln["ns_per_iter"], BASE[("BM_LayerNorm", 32)])
        self.assertFalse(ln["inline"])


if __name__ == "__main__":
    unittest.main()
