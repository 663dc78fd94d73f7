#!/usr/bin/env python3
"""Builds and runs the end-to-end Slicer benchmark.

    python3 perfbench/run.py --workload hot-reads --seed 1 --seconds 12 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src itself) into .bench_build/perfbench; later
calls only check that the build is up to date. The benchmark binary prints
every metric it measured; this script keeps the ones BENCHMARK.json declares
(end_to_end with --trace 0, per_layer with --trace 1) and prints them as the
last stdout line:

    {"correct": true, "attempted": N, "failed": F,
     "metrics": {"name": {"value": v, "unit": u}, ...}}

With --trace 1 it first makes an untraced run with the same arguments, so
trace.overhead_frac can compare the two runs' query_p50_ms. Any build
failure, wrong answer or missing metric exits non-zero without a result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "cloud.hpp")):
        fail("Slicer sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")


def source_identity():
    """The commit when run inside git, plus a digest of src/ either way."""
    commit = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def run_binary(args, trace, env):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}", proc.returncode or 2)
    for line in lines[:-1]:
        print(line)  # the effective configuration and cost counters
    result = json.loads(lines[-1])
    if not result["correct"]:
        fail(f"{args.workload} reported an incorrect run")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build()
    env = dict(os.environ, PERFBENCH_COMMIT=source_identity())
    measured = {}
    if args.trace:
        untraced = run_binary(args, False, env)
        result = run_binary(args, True, env)
        base = untraced["metrics"]["query_cost_p50_ms"]
        result["metrics"]["trace.overhead_frac"] = (
            result["metrics"]["query_cost_p50_ms"] / base - 1 if base > 0 else 0)
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
    else:
        result = run_binary(args, False, env)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    for metric in declared:
        name = metric["name"]
        if name not in result["metrics"]:
            fail(f"metric {name} was not measured")
        measured[name] = {"value": result["metrics"][name], "unit": metric["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": measured}))


if __name__ == "__main__":
    main()
