#!/usr/bin/env python3
"""Builds the DCIR benchmark driver from source and runs one measurement.

    python3 dcirbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds the
library and the driver under .bench_build/ (CMake, Ninja when available);
later runs only re-check the build. Every run gets its own empty JIT cache
(DCIR_CACHE_DIR) under .bench_build/runs/, removed afterwards, and a
scrubbed environment: no DCIR_*, OMP_* or GOMP_* variable reaches the driver,
and TMPDIR points inside the run's directory.

Untraced runs set up the workload SETUP_RUNS times, each in its own process
with its own empty cache, and report the median as setup_s. Traced runs
write their Chrome trace to .bench_build/traces/.

The last line of standard output is the driver's JSON result; a run that
fails prints no result and exits non-zero. See README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("polybench_compile", "polybench_scaled", "serving_mixed")
SETUP_RUNS = 3
RUN_LIMIT_S = 170


def die(msg, code=2):
    print("dcirbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the driver; returns its path."""
    for rel in ("CMakeLists.txt", os.path.join("src", "api", "Api.h"),
                os.path.join("workloads", "polybench", "gemm.c")):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            die("the repository sources are missing ({} not found next to "
                "the benchmark)".format(rel))
    cmake = shutil.which("cmake")
    if not cmake:
        die("cmake not found")
    tree = os.path.join(BUILD, "cmake")
    os.environ["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", HERE, "-B", tree, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run([cmake, "--build", tree, "--target", "dcirbench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return os.path.join(tree, "dcirbench")


def clean_env(cache_dir, cxx):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("DCIR_", "OMP_", "GOMP_"))}
    env["DCIR_CACHE_DIR"] = cache_dir
    # Compiler temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(cache_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if cxx:
        env["DCIR_CXX"] = cxx
    return env


def run_driver(cmd, env, deadline):
    """Runs one driver process in its own process group; returns (rc, out).
    On timeout the whole group (the JIT's compilers too) is killed."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("run exceeded {} s".format(RUN_LIMIT_S), 1)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks (tests/test_bench.py).
    ap.add_argument("--kernels", help="comma-separated Polybench subset")
    ap.add_argument("--requests", type=int,
                    help="serving_mixed: exact requests per client")
    ap.add_argument("--dump-inputs", help="write the generated inputs here")
    ap.add_argument("--cxx", help="host C++ compiler for the JIT (DCIR_CXX)")
    args = ap.parse_args()

    driver = build()
    start = time.time()
    deadline = start + RUN_LIMIT_S
    tag = "{}-{}-{}".format(args.workload, args.seed, os.getpid())
    run_dir = os.path.join(BUILD, "runs", tag)
    base = [driver, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds)]
    if args.kernels:
        base += ["--kernels", args.kernels]
    try:
        os.makedirs(run_dir)
        if args.dump_inputs:
            rc, out = run_driver(
                base + ["--trace", "0", "--run-dir", run_dir,
                        "--dump-inputs", os.path.abspath(args.dump_inputs)],
                clean_env(os.path.join(run_dir, "cache"), args.cxx), deadline)
            sys.exit(rc)

        extra = []
        if not args.trace:
            for i in range(1, SETUP_RUNS):
                sub = os.path.join(run_dir, "setup{}".format(i))
                rc, out = run_driver(
                    base + ["--trace", "0", "--run-dir", sub, "--setup-only"],
                    clean_env(os.path.join(sub, "cache"), args.cxx), deadline)
                last = out.strip().splitlines()[-1:] or [""]
                fields = last[0].split()
                if rc != 0 or len(fields) != 4 or fields[0] != "SETUP":
                    sys.stderr.write(out)
                    die("set-up process failed (exit {})".format(rc), 1)
                extra.append(":".join(fields[1:]))
                shutil.rmtree(sub, ignore_errors=True)

        cmd = base + ["--trace", str(args.trace), "--run-dir", run_dir]
        if extra:
            cmd += ["--extra-setup", ",".join(extra)]
        if args.requests:
            cmd += ["--requests", str(args.requests)]
        if args.trace:
            traces = os.path.join(BUILD, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-out", os.path.join(
                traces, "{}-seed{}.json".format(args.workload, args.seed))]
        rc, out = run_driver(
            cmd, clean_env(os.path.join(run_dir, "cache"), args.cxx), deadline)
        if rc != 0:
            sys.stderr.write(out)
            die("driver failed (exit {})".format(rc), 1)
        sys.stdout.write(out)
        sys.stdout.flush()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
