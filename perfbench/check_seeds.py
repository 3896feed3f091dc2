#!/usr/bin/env python3
"""Shows that the benchmark's --seed argument works.

For each workload: two runs with the same seed must give identical
local_rounds and the same outputs digest (the row set: pair, instance,
status and rounds of every run or row); a run with the next seed must be
correct, and its own local_rounds and digest are printed next to the
first. Exits 1 on any violation.

    python3 perfbench/check_seeds.py [--seed N] [--workload NAME ...]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("bulk-2e20", "landscape", "serve-tcp")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    details = json.loads(next(line for line in out if line.startswith("details: "))[9:])
    return result["correct"], result["metrics"]["local_rounds"]["value"], details["outputs_digest"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        first, again, other = run(workload, args.seed), run(workload, args.seed), \
            run(workload, args.seed + 1)
        checks = {
            "every run correct": first[0] and again[0] and other[0],
            "same seed, same local_rounds and rows": first[1:] == again[1:],
        }
        print("%-10s seed %d: local_rounds %s digest %s | seed %d: local_rounds %s digest %s%s" % (
            workload, args.seed, first[1], first[2], args.seed + 1, other[1], other[2],
            "" if other[1:] != first[1:] else " (same outputs)"))
        for name, passed in checks.items():
            print("  %-40s %s" % (name, "ok" if passed else "FAILED"))
            ok = ok and passed
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
