#!/usr/bin/env python3
"""Execution-determinism gate: assert that variant bench_micro runs
produced the same sweep rows as the baseline (serial) run.

Wall-clock fields differ by design; what must be identical row by row is
the workload identity (problem, algo, family, nodes, edges) and the
deterministic outcome fields (status, rounds). A mismatch means a pooled
execution path (the engine's pooled phases, check_ne_lcl, run_batch)
diverged from the serial one — exactly the bit-identity
contract the thread pool promises.

Any number of variants can be gated against one baseline, each compared
independently; the CI job passes the threaded run (bench_micro
--threads 4).

Usage: check_threaded_determinism.py BASELINE.json VARIANT.json [...]
Exit codes: 0 all identical, 1 divergence, 2 usage/parse error.
"""

import json
import sys

IDENTITY = ("problem", "algo", "family", "nodes", "edges")
OUTCOME = ("status", "rounds")


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError(f"{path}: expected a sweep object with a 'rows' key")
    return doc["rows"]


def diff_rows(baseline, variant, label):
    """Returns the number of divergent rows between the two row lists."""
    if len(baseline) != len(variant):
        print(f"determinism-gate: {label}: row count differs: "
              f"{len(baseline)} baseline vs {len(variant)} variant",
              file=sys.stderr)
        return max(len(baseline), len(variant))

    divergent = 0
    for i, (a, b) in enumerate(zip(baseline, variant)):
        for key in IDENTITY + OUTCOME:
            if a.get(key) != b.get(key):
                name = a.get("problem", "?")
                if a.get("algo"):
                    name += "/" + a["algo"]
                print(f"determinism-gate: {label}: row {i} ({name} "
                      f"@{a.get('family', '')} n={a.get('nodes', 0)}): "
                      f"{key} {a.get(key)!r} baseline vs {b.get(key)!r} "
                      f"variant")
                divergent += 1
                break
    return divergent


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        baseline = load_rows(sys.argv[1])
        variants = [(path, load_rows(path)) for path in sys.argv[2:]]
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"determinism-gate: {err}", file=sys.stderr)
        return 2

    total = 0
    for path, rows in variants:
        divergent = diff_rows(baseline, rows, path)
        print(f"determinism-gate: {path}: {len(baseline)} rows compared, "
              f"{divergent} divergent")
        total += divergent

    if total:
        return 1
    print(f"determinism-gate: {len(variants)} variant(s) identical to "
          f"baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
