#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ (library included) and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
holds every end_to_end metric of BENCHMARK.json when --trace is 0 and every
per_layer metric when it is 1.  A traced run also writes a Chrome trace to
the build directory.  See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once and builds incrementally; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    # The library reads MCMPI_* variables for defaults; a benchmark run uses
    # the library's own defaults only.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MCMPI_")}
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"workload {args.workload} exited with code {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    measured = raw["per_layer" if args.trace else "end_to_end"]
    correct = bool(raw["correct"])
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                log(f"end-to-end metric {m['name']} was not measured")
                return 1
            # A layer this workload never enters reports 0.
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']} != {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
