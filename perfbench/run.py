#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload rw_inmem --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The binary is built with CMake into
$CARGO_TARGET_DIR (default .bench_build); the first run configures and
compiles, later runs only rebuild what changed. Build output goes to stderr, so
standard output holds the binary's report and, as its last line, the JSON
result. The result line is checked against the metric list in BENCHMARK.json
before it is printed. The exit code is non-zero when the build fails, the
binary fails or times out, or any output was wrong.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, **kwargs):
    """Runs cmd to completion (killing it on timeout) and returns (code, stdout)."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    code, _ = run_checked(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, want):
    try:
        res = json.loads(line)
    except ValueError:
        fail("the benchmark did not end with a JSON result line")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has the wrong keys")
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in res["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} has no finite value")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("no operation was attempted")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    want = expected_metrics(args.trace)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    code, out = run_checked(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-dir", trace_dir],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    res = check_result(lines[-1], want)
    print("\n".join(lines[:-1]))
    print(json.dumps(res))
    sys.stdout.flush()
    if code != 0 or not res["correct"] or res["failed"] != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
