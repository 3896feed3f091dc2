#!/usr/bin/env python3
"""Bench-regression gate: compare a BENCH_micro.json run against the
committed baseline (bench/baseline_micro.json) with a +/-25% tolerance.

Comparison is on each row's *share* of the total min-wall time rather
than raw nanoseconds, so a uniformly faster or slower machine (CI runner
vs. the machine that refreshed the baseline) cancels out; what fails the
gate is a row whose cost grew relative to the rest of the suite. Rows are
matched by (problem, algo, family, nodes); only rows with status "ok" in
both files and a baseline min-wall above the noise floor participate. The
min over repeats (not the median) is compared because it is the stable
statistic under scheduler jitter.

Schema tolerance, by design: the gate compares only the keys it names.
Rows present in the current run but not in the baseline (a new benchmark,
a deeper size ramp) are ignored; rows that vanished from the current run
only warn; and unknown JSON fields on a row (new stats columns such as
edges_per_sec or the engine byte gauges) are never an error. A baseline
refresh is therefore only needed when timings shift, not when the bench
grows.

Exit codes: 0 clean, 1 regression, 2 usage/parse error.

Refreshing the baseline (CI menu):
    ./build/bench_micro --sizes 64 --repeat 5 --threads 1 \
        --engine-max-exp 14 --json bench/baseline_micro.json

Self check (run by CI before gating):
    python3 bench/check_bench_regression.py --self-test
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    return index_rows(doc, path)


def index_rows(doc, origin):
    if not isinstance(doc, dict) or "rows" not in doc:
        raise ValueError(f"{origin}: expected a sweep object with a 'rows' key")
    rows = {}
    for row in doc["rows"]:
        if row.get("status") != "ok":
            continue
        key = (row.get("problem", ""), row.get("algo", ""),
               row.get("family", ""), row.get("nodes", 0))
        rows[key] = int(row.get("wall_ns_min", 0))
    return rows


def find_regressions(current, baseline, tolerance, floor_ns):
    """Core of the gate, shared by main() and the self-test.

    Returns (common_keys, regressions) where each regression is
    (key, base_ns, cur_ns, base_share, cur_share). Raises ValueError when
    nothing is comparable.
    """
    common = sorted(set(current) & set(baseline))
    if not common:
        raise ValueError("no comparable ok-rows between current and baseline")

    cur_total = sum(current[k] for k in common)
    base_total = sum(baseline[k] for k in common)
    if cur_total == 0 or base_total == 0:
        raise ValueError("zero total wall time; nothing to compare")

    regressions = []
    for key in common:
        base_ns = baseline[key]
        if base_ns < floor_ns:
            continue
        cur_share = current[key] / cur_total
        base_share = base_ns / base_total
        if cur_share > base_share * (1.0 + tolerance):
            regressions.append((key, base_ns, current[key], base_share,
                                cur_share))
    return common, regressions


# ---- embedded unit tests ----------------------------------------------------

def _doc(rows):
    return {"rows": rows}


def _row(problem, ns, **extra):
    row = {"problem": problem, "algo": "a", "family": "f", "nodes": 64,
           "status": "ok", "wall_ns_min": ns}
    row.update(extra)
    return row


def self_test():
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    base = index_rows(_doc([_row("p", 10_000_000), _row("q", 10_000_000)]),
                      "base")

    # Identical run: clean.
    cur = index_rows(_doc([_row("p", 10_000_000), _row("q", 10_000_000)]),
                     "cur")
    _, regs = find_regressions(cur, base, 0.25, 1_000_000)
    check("identical-clean", regs == [])

    # Uniform 3x slowdown cancels out (share-based comparison).
    cur = index_rows(_doc([_row("p", 30_000_000), _row("q", 30_000_000)]),
                     "cur")
    _, regs = find_regressions(cur, base, 0.25, 1_000_000)
    check("uniform-slowdown-clean", regs == [])

    # One row doubling while the other holds is a regression.
    cur = index_rows(_doc([_row("p", 20_000_000), _row("q", 10_000_000)]),
                     "cur")
    _, regs = find_regressions(cur, base, 0.25, 1_000_000)
    check("lopsided-regresses", len(regs) == 1 and regs[0][0][0] == "p")

    # Added rows in the current run are ignored, not an error.
    cur = index_rows(_doc([_row("p", 10_000_000), _row("q", 10_000_000),
                           _row("new-bench", 99_000_000)]), "cur")
    common, regs = find_regressions(cur, base, 0.25, 1_000_000)
    check("added-rows-ignored", len(common) == 2 and regs == [])

    # Unknown columns on a row (new stats fields) are ignored.
    cur = index_rows(_doc([_row("p", 10_000_000, edges_per_sec=123,
                                stats={"engine_bytes_slab": 4096}),
                           _row("q", 10_000_000)]), "cur")
    _, regs = find_regressions(cur, base, 0.25, 1_000_000)
    check("added-columns-ignored", regs == [])

    # Gauges of the retired pinned executor in a row's stats (older BENCH
    # files carry them) are ignored the same way — gating never requires a
    # baseline refresh for them.
    doc = _doc([_row("p", 10_000_000,
                     stats={"pinned_teams": 4, "barrier_ns": 12_345,
                            "numa_local_bytes": 1 << 20}),
                _row("q", 10_000_000)])
    _, regs = find_regressions(index_rows(doc, "cur"), base, 0.25, 1_000_000)
    check("pinned-columns-ignored", regs == [])

    # Rows below the noise floor never gate.
    tiny_base = index_rows(_doc([_row("p", 500), _row("q", 10_000_000)]),
                           "base")
    cur = index_rows(_doc([_row("p", 50_000), _row("q", 10_000_000)]), "cur")
    _, regs = find_regressions(cur, tiny_base, 0.25, 1_000_000)
    check("noise-floor-skips", regs == [])

    # Non-ok rows are excluded from indexing.
    skipped = index_rows(_doc([_row("p", 10_000_000),
                               _row("q", 10_000_000, status="error")]),
                         "cur")
    check("non-ok-skipped", len(skipped) == 1)

    # Disjoint row sets are a hard error, not a silent pass.
    try:
        find_regressions(index_rows(_doc([_row("x", 1_000_000)]), "cur"),
                         base, 0.25, 1_000_000)
        check("disjoint-errors", False)
    except ValueError:
        check("disjoint-errors", True)

    # Malformed documents are a hard error.
    try:
        index_rows(["not", "a", "sweep"], "cur")
        check("malformed-errors", False)
    except ValueError:
        check("malformed-errors", True)

    if failures:
        print(f"bench-gate: SELF-TEST FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("bench-gate: self-test passed (10 checks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="?",
                        help="BENCH_micro.json of this run")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline_micro.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative growth of a row's share of "
                             "total wall time (default 0.25 = +/-25%%)")
    parser.add_argument("--floor-ns", type=int, default=1_000_000,
                        help="ignore rows whose baseline min-wall is below "
                             "this (noise; default 1ms)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded unit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.current is None or args.baseline is None:
        parser.error("current and baseline are required unless --self-test")

    try:
        current = load_rows(args.current)
        baseline = load_rows(args.baseline)
        common, regressions = find_regressions(current, baseline,
                                               args.tolerance, args.floor_ns)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        print(f"bench-gate: {err}", file=sys.stderr)
        return 2

    missing = sorted(set(baseline) - set(current))
    for key in missing:
        print(f"bench-gate: WARNING baseline row vanished: {key}")

    cur_total = sum(current[k] for k in common)
    base_total = sum(baseline[k] for k in common)
    print(f"bench-gate: {len(common)} comparable rows, total min-wall "
          f"{cur_total / 1e6:.1f} ms (baseline {base_total / 1e6:.1f} ms)")
    for key, base_ns, cur_ns, base_share, cur_share in regressions:
        problem, algo, family, nodes = key
        name = f"{problem}/{algo}" if algo else problem
        print(f"bench-gate: REGRESSION {name} @{family} n={nodes}: "
              f"share {base_share:.1%} -> {cur_share:.1%} "
              f"({base_ns / 1e3:.0f}us -> {cur_ns / 1e3:.0f}us)")
    if regressions:
        print(f"bench-gate: {len(regressions)} row(s) regressed beyond "
              f"+{args.tolerance:.0%}")
        return 1
    print("bench-gate: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
