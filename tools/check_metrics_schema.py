#!/usr/bin/env python3
"""Validate the metrics snapshot embedded in a BENCH_*.json file.

CI runs this against BENCH_phases.json: it checks the "phases" section —
the output of slicer::metrics::snapshot_json() — against the committed
schema (tools/metrics_schema.json), which pins

  * the three sections and their order-independent shapes
    (counters/gauges: name -> integer; histograms: name -> object with
    count/sum_ns/total_ms),
  * the instrument naming convention (layer.component.event),
  * internal consistency: total_ms is sum_ns / 1e6,
  * the presence of the required instruments every full protocol run must
    record (the schema's "required" lists).

Renaming or dropping an instrument is an API change: update
tools/metrics_schema.json in the same commit.

Usage: check_metrics_schema.py BENCH_phases.json [--schema schema.json]
           [--require-set required]

--require-set picks which of the schema's required-instrument lists to
enforce: "required" (the default, full protocol runs) or "required_net"
(wire-protocol runs — CI applies it to BENCH_throughput.json).

stdlib only — no third-party packages.
"""

import argparse
import json
import re
import sys

NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


def fail(msg):
    print(f"check_metrics_schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_names(section_name, mapping):
    for name in mapping:
        if not NAME_RE.match(name):
            fail(f"{section_name} instrument {name!r} violates the "
                 "layer.component.event naming convention")


def check_histogram(name, hist):
    for key in ("count", "sum_ns", "total_ms"):
        if key not in hist:
            fail(f"histogram {name!r} missing key {key!r}")
    if not isinstance(hist["count"], int) or not isinstance(hist["sum_ns"], int):
        fail(f"histogram {name!r}: count/sum_ns must be integers")
    # total_ms is derived; allow float formatting slack.
    expected_ms = hist["sum_ns"] / 1e6
    if abs(hist["total_ms"] - expected_ms) > max(1e-9, expected_ms * 1e-4):
        fail(f"histogram {name!r}: total_ms {hist['total_ms']} != "
             f"sum_ns/1e6 {expected_ms}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("bench_json")
    parser.add_argument("--schema", default=None,
                        help="schema file (default: metrics_schema.json "
                             "next to this script)")
    parser.add_argument("--require-set", default="required",
                        help="schema key naming the required-instrument "
                             "lists to enforce (e.g. required_net)")
    args = parser.parse_args()

    if args.schema is None:
        import os
        args.schema = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "metrics_schema.json")

    with open(args.bench_json) as f:
        bench = json.load(f)
    with open(args.schema) as f:
        schema = json.load(f)

    snap = bench.get("phases", bench)  # accept a bare snapshot too
    if "phases" not in bench and not all(
            k in snap for k in ("counters", "gauges", "histograms")):
        fail(f"{args.bench_json} has no 'phases' section and is not a "
             "bare metrics snapshot")

    for section in ("counters", "gauges", "histograms"):
        if section not in snap:
            fail(f"snapshot missing section {section!r}")
        if not isinstance(snap[section], dict):
            fail(f"section {section!r} must be an object")
        check_names(section, snap[section])

    for name, v in snap["counters"].items():
        if not isinstance(v, int) or v < 0:
            fail(f"counter {name!r} must be a non-negative integer, got {v!r}")
    for name, v in snap["gauges"].items():
        if not isinstance(v, int):
            fail(f"gauge {name!r} must be an integer, got {v!r}")
    for name, hist in snap["histograms"].items():
        check_histogram(name, hist)

    if args.require_set not in schema:
        fail(f"schema has no required-instrument set {args.require_set!r}")
    for section in ("counters", "gauges", "histograms"):
        for name in schema[args.require_set].get(section, []):
            if name not in snap[section]:
                fail(f"{args.require_set} {section[:-1]} {name!r} absent "
                     "from snapshot (renamed? update "
                     "tools/metrics_schema.json)")

    n = sum(len(snap[s]) for s in ("counters", "gauges", "histograms"))
    print(f"check_metrics_schema: OK ({n} instruments, "
          f"{len(snap['histograms'])} histograms)")


if __name__ == "__main__":
    main()
