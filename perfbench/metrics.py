"""Arithmetic of the padlock end-to-end benchmark.

Turns the raw record written by padlock_perfbench (op timings, checks and
spans) into the reported metrics. Kept free of I/O so test_metrics.py can
pin every rule.
"""

import statistics
from collections import defaultdict

# (name, unit, better) of every end-to-end metric, printed by untraced runs.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("verified_edges_per_s", "edges/s", "higher"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("local_rounds", "rounds", "lower"),
]

BULK_PAIRS = [
    "mis/luby",
    "matching/propose-accept",
    "sinkless-orientation/propose-repair",
    "coloring/linial",
]
LANDSCAPE_STRAGGLERS = [
    "sinkless-orientation/short-cycle-det",
    "coloring/decomposition-sweep",
]


def solve_metric(pair):
    return "algo.solve_ms." + pair.replace("/", "-")


# (name, unit, better) of every per-layer metric, printed by traced runs.
# A layer the workload does not exercise reports 0.
PER_LAYER = (
    [
        ("graph.build_ms", "ms", "lower"),
        ("graph.builds", "count", "lower"),
        ("graph_cache.hit_ratio", "ratio", "higher"),
        ("store.load_ms", "ms", "lower"),
        ("ids.assign_ms", "ms", "lower"),
        ("ids.validate_ms", "ms", "lower"),
        ("registry.precondition_ms", "ms", "lower"),
        ("registry.input_ms", "ms", "lower"),
    ]
    + [(solve_metric(p), "ms", "lower") for p in BULK_PAIRS + LANDSCAPE_STRAGGLERS]
    + [
        ("engine.bytes_slab", "B", "lower"),
        ("checker.check_ms", "ms", "lower"),
        ("runner.render_ms", "ms", "lower"),
        ("runner.row_ms_max", "ms", "lower"),
        ("thread_pool.utilization", "ratio", "higher"),
        ("serve.parse_us", "us", "lower"),
        ("serve.accept_ms", "ms", "lower"),
        ("serve.first_row_ms", "ms", "lower"),
        ("serve.tail_ms", "ms", "lower"),
        ("serve.refuse_ms", "ms", "lower"),
        ("serve.overhead_ms", "ms", "lower"),
        ("serve.rejected", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
)

TAIL_BEYOND = 10


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, count). A percentile is a tail only above
    the median, which takes at least 2 * TAIL_BEYOND + 2 samples. With
    fewer there is no tail to report: the median is returned with
    percentile 50, so the metric stays defined and the caller can tell.
    (The maximum of so few samples would only add run-to-run noise.)
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = n - 1 - TAIL_BEYOND
    if 2 * rank <= n - 1:
        return statistics.median(ordered), 50.0, n
    return ordered[rank], 100.0 * (rank + 1) / n, n


def union_length(intervals):
    """Total length covered by possibly overlapping [t0, t1] intervals."""
    total = 0
    end = None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover.

    Children may overlap each other (rows on pool workers) and are clipped
    to the parent's interval.
    """
    t0, t1 = span
    clipped = [(max(a, t0), min(b, t1)) for a, b in children]
    return (t1 - t0) - union_length([c for c in clipped if c[1] > c[0]])


def op_failed(op):
    """An op fails unless its outputs checked out and, for requests with an
    expected answer, that answer arrived. An expected refusal is a success;
    a refusal of a request that should have run (including admission
    control's `rejected`) is a failure."""
    if "expect" in op:
        return op["answer"] != op["expect"] or not op["ok"]
    return not op["ok"]


def accounting(raw):
    """(attempted, failed) over every phase of the run. A landscape sweep
    counts its rows; serve-tcp adds the final drain as one more op."""
    attempted = failed = 0
    for phase in raw["phases"]:
        for op in phase["ops"]:
            if "rows" in op:
                attempted += op["rows"]
                failed += op["failed_rows"]
                if not op["ok"] and op["failed_rows"] == 0:
                    failed += 1
            else:
                attempted += 1
                failed += int(op_failed(op))
    if raw["workload"] == "serve-tcp":
        attempted += 1
        failed += int(not raw["drained"])
    return attempted, failed


def untraced_phase(raw):
    return next(p for p in raw["phases"] if not p["traced"])


def end_to_end(raw):
    """Every END_TO_END metric, from the untraced phase; also returns the
    tail's percentile and sample count."""
    phase = untraced_phase(raw)
    ops = phase["ops"]
    ms = [op["ms"] for op in ops]
    tail_ms, tail_pct, n = tail(ms)
    attempted, failed = accounting(raw)
    completed = sum(1 for op in ops if not op_failed(op))
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail_ms,
        "ops_per_s": completed / phase["wall_s"],
        "verified_edges_per_s": sum(op["edges"] for op in ops) / phase["wall_s"],
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "local_rounds": raw["local_rounds"],
    }
    return values, {"percentile": tail_pct, "samples": n}


class Spans:
    """The spans of a traced run, indexed by parent."""

    def __init__(self, rows):
        self.spans = [
            {"id": r[0], "parent": r[1], "op": r[2], "name": r[3], "t0": r[4], "t1": r[5]}
            for r in rows
        ]
        self.children = defaultdict(list)
        for s in self.spans:
            if s["parent"] != 0:
                self.children[s["parent"]].append(s)

    def roots(self, prefix):
        return [s for s in self.spans if s["parent"] == 0 and s["name"].startswith(prefix)]

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def kids(self, span, name=None, prefix=None):
        out = self.children[span["id"]]
        if name is not None:
            out = [s for s in out if s["name"] == name]
        if prefix is not None:
            out = [s for s in out if s["name"].startswith(prefix)]
        return out


def ms_of(span):
    return (span["t1"] - span["t0"]) / 1e6


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def overhead_pct(raw):
    """Traced vs untraced op wall: the sum over op kinds of the traced
    medians against the sum of the untraced medians."""
    by_phase = [defaultdict(list), defaultdict(list)]
    for phase in raw["phases"]:
        for op in phase["ops"]:
            by_phase[int(phase["traced"])][op["kind"]].append(op["ms"])
    kinds = [k for k in by_phase[0] if k in by_phase[1]]
    base = sum(statistics.median(by_phase[0][k]) for k in kinds)
    traced = sum(statistics.median(by_phase[1][k]) for k in kinds)
    return 100.0 * (traced / base - 1.0) if base > 0 else 0.0


def per_layer(raw):
    """Every PER_LAYER metric of a traced run."""
    spans = Spans(raw["spans"])
    ops = spans.roots("op:")
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(raw["layers"])

    # Graph builds per build event: each sweep where ops build their own
    # graphs (landscape), otherwise each set-up repetition.
    events = [op for op in ops if spans.kids(op, "graph.build")] or spans.roots("setup")
    builds = [spans.kids(e, "graph.build") for e in events]
    values["graph.build_ms"] = median_or_zero(sum(ms_of(b) for b in bs) for bs in builds)
    values["graph.builds"] = median_or_zero(len(bs) for bs in builds)
    values["store.load_ms"] = median_or_zero(
        sum(ms_of(s) for s in spans.kids(op, "store.load")) for op in ops
        if spans.kids(op, "store.load"))

    for metric, name in [
        ("ids.assign_ms", "shuffled_ids"),
        ("ids.validate_ms", "ids_valid"),
        ("registry.precondition_ms", "precondition"),
        ("registry.input_ms", "make_input"),
        ("checker.check_ms", "check"),
        ("serve.accept_ms", "accept"),
        ("serve.first_row_ms", "first_row"),
        ("serve.tail_ms", "tail"),
        ("serve.refuse_ms", "refuse"),
    ]:
        if spans.named(name):
            values[metric] = median_or_zero(ms_of(s) for s in spans.named(name))
    renders = spans.named("row_to_json") + spans.named("to_json")
    if renders:
        values["runner.render_ms"] = median_or_zero(ms_of(s) for s in renders)

    # bulk-2e20 times the solve call itself; a landscape row is timed whole,
    # so a straggler pair reports its rows' summed wall per sweep.
    for pair in BULK_PAIRS:
        solves = [s for op in spans.roots("op:" + pair) for s in spans.kids(op, "solve")]
        values[solve_metric(pair)] = median_or_zero(ms_of(s) for s in solves)
    batches = spans.named("run_batch")
    for pair in LANDSCAPE_STRAGGLERS:
        values[solve_metric(pair)] = median_or_zero(
            sum(ms_of(r) for r in spans.kids(b, "row:" + pair)) for b in batches)

    if batches:
        values["runner.row_ms_max"] = median_or_zero(
            max((ms_of(r) for r in spans.kids(b, prefix="row:")), default=0.0)
            for b in batches)
        values["thread_pool.utilization"] = median_or_zero(
            sum(ms_of(r) for r in spans.kids(b, prefix="row:"))
            / (raw["threads"] * ms_of(b)) for b in batches)

    offline = raw["offline_ms"]
    overheads = [
        op["ms"] - offline[op["kind"]]
        for op in untraced_phase(raw)["ops"]
        if op["kind"] in offline and not op_failed(op)
    ]
    if overheads:
        values["serve.overhead_ms"] = statistics.median(overheads)

    values["trace.overhead_pct"] = overhead_pct(raw)
    coverage = [
        1.0 - self_time((op["t0"], op["t1"]), [(c["t0"], c["t1"]) for c in spans.kids(op)])
        / (op["t1"] - op["t0"])
        for op in ops if op["t1"] > op["t0"]
    ]
    values["trace.coverage"] = min(coverage) if coverage else 0.0
    return {name: values[name] for name, _, _ in PER_LAYER}
