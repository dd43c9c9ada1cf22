#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the compiler).

    python3 dcirbench/tests/test_bench.py

Run from the root of a checkout. Each test drives dcirbench/run.py, which
builds the driver on first use.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "dcirbench", "run.py")
WORKLOADS = ("polybench_compile", "polybench_scaled", "serving_mixed")


def run(*args):
    p = subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                       capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        raise AssertionError("run.py {} failed ({}):\n{}".format(
            " ".join(args), p.returncode, p.stderr[-3000:]))
    return p.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchSelfTest(unittest.TestCase):
    def dump(self, workload, seed, path):
        run("--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--dump-inputs", path)
        with open(path, "rb") as f:
            return f.read()

    def test_inputs_depend_only_on_the_seed(self):
        scratch = os.path.join(ROOT, ".bench_build", "tests")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            for w in WORKLOADS:
                a = self.dump(w, 7, os.path.join(d, w + ".a"))
                b = self.dump(w, 7, os.path.join(d, w + ".b"))
                c = self.dump(w, 8, os.path.join(d, w + ".c"))
                self.assertTrue(a, w)
                self.assertEqual(a, b, w + ": same seed, different inputs")
                self.assertNotEqual(a, c, w + ": seed does not reach inputs")

    def test_failing_host_compiler_is_counted_not_fatal(self):
        out = run("--workload", "polybench_compile", "--seed", "1",
                  "--seconds", "1", "--kernels", "atax,trisolv",
                  "--cxx", "/bin/false")
        r = result(out)
        self.assertGreater(r["attempted"], 0)
        self.assertGreater(r["failed"] / r["attempted"], 0.0)

    def test_serving_counters_repeat_for_a_seed(self):
        def counters():
            out = run("--workload", "serving_mixed", "--seed", "3",
                      "--seconds", "1", "--requests", "2048")
            line = [l for l in out.splitlines() if l.startswith("counters:")]
            self.assertEqual(len(line), 1, out)
            fields = dict(f.split("=") for f in line[0].split()[1:])
            self.assertEqual(result(out)["failed"], 0)
            return {k: fields[k] for k in ("calls", "gemm_calls", "guard_pass",
                                           "guard_fail", "specialize_hits")}

        first = counters()
        self.assertEqual(first, counters())
        self.assertGreater(int(first["guard_fail"]), 0)
        self.assertEqual(first["specialize_hits"], first["gemm_calls"])


if __name__ == "__main__":
    unittest.main()
