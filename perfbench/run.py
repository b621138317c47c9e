#!/usr/bin/env python3
"""Builds and runs the NSBench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The perfbench binary is built from source with CMake into .bench_build
(or $CARGO_TARGET_DIR when set). Workload parameters come from
perfbench/config.json, the workloads' rationale and the metric names
from BENCHMARK.json. The full result record, with provenance, is
written to .bench_out/; the last line of standard output is the
summary: correct, attempted, failed and the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). Everything else goes
to standard error.

A failed correctness check still prints the summary, with "correct"
false and every attempt counted as failed. The exit code is non-zero,
with no summary printed, when the build or the run fails or a metric
is missing.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def revision():
    """Git commit when available, else a hash of the built sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()


def build(build_dir, build_type):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=" + build_type],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    if args.workload not in config["workloads"]:
        log("unknown workload", args.workload)
        return 2
    workload = config["workloads"][args.workload]
    why = next(w["why"] for w in declared["workloads"]
               if w["name"] == args.workload)

    try:
        binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                       BUILD_TYPE)
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 1

    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    for key, value in workload["params"].items():
        cmd += ["--" + key, str(value)]
    # The benchmark pins every knob itself; inherited overrides of the
    # program's environment switches would make runs incomparable.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NSBENCH_")}
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded", RUN_TIMEOUT_S, "s")
        return 1
    if proc.returncode != 0:
        log("run failed with exit code", proc.returncode)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("run printed no result")
        return 1
    record = json.loads(lines[-1])
    record["revision"] = revision()
    record["run_wall_s"] = time.time() - started
    record["why"] = why
    record["loads"] = workload["loads"]
    record["bypasses"] = workload["bypasses"]
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log("result record:", path)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("metric missing or with the wrong unit:", m["name"])
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
