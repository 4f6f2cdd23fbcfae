#!/usr/bin/env python3
"""Check the serve benchmark's deterministic counters against a pinned file.

    python3 perfbench/run.py --workload W --seed 1 --trace 1 \\
        | python3 tools/perf_counters.py --workload W PERF_COUNTERS.json

Copies its input to stdout, then reads the last non-empty line as the
benchmark's JSON result and compares each counter the pinned file lists
for the workload with the result's metric of that name, exactly (floats
too: the counters are deterministic at a fixed seed).  Exits 1 on any
difference, a missing counter or an unparsable result.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("pinned")
    args = parser.parse_args()
    with open(args.pinned) as f:
        expected = json.load(f)["workloads"].get(args.workload)
    if expected is None:
        print(f"perf-counters: {args.pinned} pins no workload {args.workload}")
        return 1
    lines = sys.stdin.read().splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines))
    results = [line for line in lines if line.strip()]
    try:
        metrics = json.loads(results[-1])["metrics"]
    except (IndexError, ValueError, KeyError, TypeError) as e:
        print(f"perf-counters: {args.workload}: no benchmark result to check ({e!r})")
        return 1
    failed = False
    for name, want in expected.items():
        got = metrics.get(name, {}).get("value")
        if got != want:
            print(f"perf-counters: {args.workload}: {name} = {got!r}, pinned {want!r}")
            failed = True
    if failed:
        return 1
    print(f"perf-counters: {args.workload}: {len(expected)} counters match {args.pinned}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
