#!/usr/bin/env python3
"""Serving benchmark entry point: builds, guards, runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds medcc_server and the benchmark binary (Release) into
.bench_build/perfbench under the repository root, refuses a build tree
that is not Release or has invariant checking or sanitizers on, runs one
measured run of NAME, and prints the run's tables followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hit_exact", "miss_sweep", "mixed_durable")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def configure():
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
           "-DMEDCC_CHECK_INVARIANTS=OFF", "-DMEDCC_SANITIZE="]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "medcc_server",
           "perfbench", "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def cache_entries():
    entries = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith(("#", "//")) or "=" not in line:
                continue
            key, value = line.split("=", 1)
            entries[key.split(":", 1)[0]] = value
    return entries


def refusal():
    """Why this build tree must not be measured, or None."""
    cache = cache_entries()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        return f"CMAKE_BUILD_TYPE is '{cache.get('CMAKE_BUILD_TYPE', '')}', not Release"
    if cache.get("MEDCC_CHECK_INVARIANTS", "OFF").upper() not in ("OFF", "0", "FALSE", "NO"):
        return "MEDCC_CHECK_INVARIANTS is on"
    if cache.get("MEDCC_SANITIZE", ""):
        return f"MEDCC_SANITIZE is '{cache['MEDCC_SANITIZE']}'"
    for key in ("CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE", "CMAKE_EXE_LINKER_FLAGS"):
        if "-fsanitize" in cache.get(key, ""):
            return f"{key} enables a sanitizer"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    spec = benchmark_spec()
    # A configure that failed half-way leaves a cache but no build files.
    configured = os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and any(
        os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile"))
    if not configured and not configure():
        log("configure failed")
        return 1
    why = refusal()
    if why:
        log(f"refusing to measure {BUILD_DIR}: {why}")
        return 3
    if not build():
        log("build failed")
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "runs",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD_DIR, "medcc", "tools", "medcc_server"),
           "--work-dir", work_dir]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(budget, args.seconds + 30))
    except subprocess.TimeoutExpired:
        log("run timed out")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"run failed with exit code {proc.returncode}")
        shutil.rmtree(work_dir, ignore_errors=True)
        return 1
    record = json.loads(lines[-1])
    records = os.path.join(ROOT, ".bench_build", "records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, f"{args.workload}-{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    shutil.rmtree(work_dir, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(record["host"]))
    print("checks: " + json.dumps(record["checks"]))
    for failure in record["failures"]:
        print("failure: " + failure)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        log("run did not report " + ", ".join(missing))
        return 1
    metrics = {m["name"]: {"value": source[m["name"]]["value"],
                           "unit": m["unit"]} for m in wanted}
    correct = bool(record["correct"])
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
