#!/usr/bin/env python3
"""MLPsim benchmark driver.

Builds the mlpbench harness (perfbench/CMakeLists.txt: the mlpsim
libraries plus mlpbench.cc) from the sources of this checkout, runs one
workload, checks its results and prints every metric by name with its
unit. The last stdout line is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload epoch-sweep --seed 0 \\
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) inside the checkout. --record-digests stores the
run's per-cell result digests in perfbench/digests.json as the reference
for its seed; later runs at that seed must reproduce them exactly.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build mlpbench; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: no mlpsim sources at", os.path.join(ROOT, "src"),
            "- run from a full checkout")
        sys.exit(2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True, timeout=600)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "mlpbench"], stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(out, "mlpbench")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=30,
            check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_json(path):
    with open(path) as f:
        return json.load(f)


def compare_digests(doc, record):
    """Count cells whose digest differs from the recorded reference."""
    grid, seed, cells = doc["grid"], str(doc["seed"]), doc["digests"]
    if not cells:
        return 0, 0, []
    table = load_json(DIGESTS) if os.path.isfile(DIGESTS) else {}
    if record:
        table.setdefault(grid, {})[seed] = cells
        with open(DIGESTS, "w") as f:
            json.dump(table, f, indent=1, sort_keys=True)
            f.write("\n")
        log("run.py: recorded", len(cells), "digests for", grid,
            "seed", seed)
        return 0, 0, []
    ref = table.get(grid, {}).get(seed)
    if ref is None:
        return 0, 0, []
    bad = sorted(k for k in set(ref) | set(cells) if ref.get(k) != cells.get(k))
    return len(ref), len(bad), ["digest mismatch: " + k for k in bad[:10]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("run.py: unknown workload", args.workload)
        sys.exit(2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--spans-out=" + os.path.join(
            build_dir(), "spans-%s-%d.json" % (args.workload, args.seed)))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("run.py: mlpbench failed with code", proc.returncode)
        sys.exit(1)
    doc = json.loads(lines[-1])

    compared, mismatched, errors = compare_digests(doc, args.record_digests)
    attempted = int(doc["attempted"]) + compared
    failed = int(doc["failed"]) + mismatched
    errors = doc["errors"] + errors
    found = doc["metrics"]
    found["error_rate"] = {"value": failed / attempted, "unit": "ratio"}

    host = dict(doc["host"], git_describe=git_describe())
    print("host: " + ", ".join("%s=%s" % kv for kv in sorted(host.items())))
    print("workload: %s  seed: %d  trace: %d  cells/requests checked: %d  "
          "failed: %d" % (args.workload, args.seed, args.trace, attempted,
                          failed))
    for name, m in found.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for err in errors:
        print("  error: " + err)

    metrics = {}
    for m in wanted:
        got = found.get(m["name"])
        if got is None or not math.isfinite(got["value"]):
            log("run.py: mlpbench did not report", m["name"])
            sys.exit(1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
