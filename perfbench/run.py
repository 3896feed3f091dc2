#!/usr/bin/env python3
"""The padlock end-to-end benchmark.

Builds padlock_perfbench from the source tree around this directory (into
.bench_build/), runs one workload, checks its outputs, and prints the
metrics as one JSON object on the last line of stdout:

    python3 perfbench/run.py --workload bulk-2e20 --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. Run it from the repository root. The raw record and a results
file with the environment (nproc, AVX2, build type, source revision) are
written to .bench_out/. See layers.json for what each per-layer metric is
expected to move.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("bulk-2e20", "landscape", "serve-tcp")
RUN_TIMEOUT_S = 170


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(nproc()),
                  "--target", "padlock_perfbench"])
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log)
    return BUILD / "padlock_perfbench"


def source_revision():
    """The git commit when the tree is a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return {"git_sha": sha.stdout.strip()}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": None, "src_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = OUT / ("raw-" + stem + ".json")
    raw_path.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    try:
        status = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if status != 0:
        sys.exit("perfbench: %s failed with exit status %d" % (args.workload, status))

    raw = json.loads(raw_path.read_text())
    attempted, failed = metrics.accounting(raw)
    env = {"nproc": raw["threads"], "avx2": raw["avx2"], "build_type": raw["build_type"],
           **source_revision()}
    if args.trace:
        values = metrics.per_layer(raw)
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        details = {}
    else:
        values, tail = metrics.end_to_end(raw)
        units = {name: unit for name, unit, _ in metrics.END_TO_END}
        details = {"op_ms_tail": tail, "outputs_digest": raw["outputs_digest"]}
    result = {
        "correct": failed == 0 and not raw["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    for error in raw["errors"][:20]:
        print("check failed: " + error, file=sys.stderr)
    (OUT / ("result-" + stem + ".json")).write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "env": env, "details": details, "errors": raw["errors"], **result}, indent=1) + "\n")
    print("env: " + json.dumps(env))
    if details:
        print("details: " + json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
