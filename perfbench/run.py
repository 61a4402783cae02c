#!/usr/bin/env python3
"""End-to-end benchmark of the gsmb library.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload dirty-batch --seed 0 --seconds 25 \
        --trace 0

Builds the library and the perfbench binary from source (Release, into
$CARGO_TARGET_DIR or .bench_build), generates the workload's input CSVs
from the seed in a separate process, runs the workload in its own process
and prints one JSON result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 runs the untraced closed loop and reports the end-to-end metrics
of BENCHMARK.json; --trace 1 runs the traced per-layer replay on the same
inputs, writes its spans as Chrome-trace JSON next to the build and reports
the per-layer metrics. Exits 0 when every output check passed, 1 when one
failed, 2 when the benchmark cannot run at all (no sources, build failure).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("dirty-batch", "cc-sweep", "serve-mixed")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: %s" % message, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then (re)builds the binary; returns its path."""
    cmake_dir = os.path.join(build_dir, "perfbench-cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                        "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs,
                    "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(cmake_dir, "perfbench")


def keep_temporaries_in(build_dir):
    """Points the compiler's and the binary's temporary files into the
    build tree, so a run writes nothing outside the checkout."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def trace_ok(root, trace_path):
    """The traced run's spans must pass the repository's trace checker."""
    if not os.path.exists(trace_path):
        log("traced run wrote no trace")
        return False
    checker = os.path.join(root, "tools", "check_trace.py")
    return subprocess.run([sys.executable, checker, trace_path],
                          stdout=sys.stderr).returncode == 0


def run_binary(argv, deadline):
    """Runs the binary; returns its parsed result line, or None."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench timed out: %s" % " ".join(argv))
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench printed no result (exit %d)" % proc.returncode)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    deadline = started + RUN_TIMEOUT_S

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("no gsmb sources under %s/src; nothing to benchmark" % root)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        keep_temporaries_in(build_dir)
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        log("build failed: %s" % err)
        return 2
    # A first run that had to build gets its full time budget afterwards.
    deadline += time.monotonic() - started

    work = os.path.join(build_dir, "perfbench-run-%d" % os.getpid())
    data = os.path.join(work, args.workload)
    serve_data = os.path.join(work, "serve-mixed")
    trace_path = os.path.join(
        build_dir, "perfbench-trace-%s-%d.json" % (args.workload, args.seed))
    seed = str(args.seed)
    if os.path.exists(trace_path):
        os.remove(trace_path)
    try:
        # Inputs are generated in their own process: generation is never
        # timed and never reaches the measured process's peak RSS.
        os.makedirs(data)
        to_generate = [(args.workload, data)]
        if args.trace and args.workload != "serve-mixed":
            os.makedirs(serve_data)
            to_generate.append(("serve-mixed", serve_data))
        for workload, directory in to_generate:
            subprocess.run([binary, "gen", "--workload", workload, "--seed",
                            seed, "--dir", directory], check=True,
                           timeout=60)
        argv = [binary, "trace" if args.trace else "run", "--workload",
                args.workload, "--seed", seed, "--seconds",
                str(args.seconds), "--dir", data]
        if args.trace:
            argv += ["--serve-dir", serve_data, "--trace-out", trace_path]
        result = run_binary(argv, deadline)
    except (OSError, subprocess.SubprocessError) as err:
        log("run failed: %s" % err)
        result = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if result is None:
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    missing = [name for name in expected_metrics(root, args.trace)
               if name not in result["metrics"]]
    if missing:
        log("metrics missing from the result: %s" % ", ".join(missing))
        result["attempted"] += 1
        result["failed"] += 1
    if args.trace:
        result["attempted"] += 1
        if not trace_ok(root, trace_path):
            result["failed"] += 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
