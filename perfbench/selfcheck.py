#!/usr/bin/env python3
"""Checks the benchmark itself; not part of a measured run.

    python3 perfbench/selfcheck.py [--seed N]

1. Builds and runs the unit tests of the benchmark's helpers (percentile,
   ledger arithmetic, speed normalisation, stratified draws, plan-tree
   combine against eval_spec).
2. Runs every workload twice with the same seed and requires the
   deterministic cost counters (modexps, Miller-Rabin runs, results fetched,
   reply bytes, round trips, gas by transaction type) to repeat exactly.
   The counters come from each workload's fixed warm-up script, which ends
   with one owner insert batch, and from the gas of its paid queries, so
   they do not depend on wall-clock time.
"""
import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build lives there)


def counters(workload, seed):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        run.fail(f"{workload} exited with code {out.returncode}")
    for line in out.stdout.splitlines():
        record = json.loads(line)
        if "counters" in record:
            return record["counters"]
    run.fail(f"{workload} printed no counters")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    run.build()
    if subprocess.run(["cmake", "--build", run.BUILD, "--target", "perfbench_test"],
                      stdout=sys.stderr).returncode != 0:
        run.fail("unit tests did not build")
    if subprocess.run([os.path.join(run.BUILD, "perfbench_test")]).returncode != 0:
        run.fail("unit tests failed")

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ok = True
    for workload in workloads:
        first, second = counters(workload, args.seed), counters(workload, args.seed)
        same = first == second
        ok &= same
        print(f"{workload}: counters {'repeat exactly' if same else 'DIFFER'}: "
              f"{json.dumps(first)}")
        if not same:
            print(f"  second run: {json.dumps(second)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
