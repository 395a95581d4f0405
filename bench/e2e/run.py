#!/usr/bin/env python3
"""Builds and runs the end-to-end tuning benchmark (see README.md).

  python3 bench/e2e/run.py                     # all four workloads, traced
  python3 bench/e2e/run.py --smoke             # tiny budgets, checks only
  python3 bench/e2e/run.py --workload c2d-gpu --seed 7 --seconds 12 --trace 0

Run from the repository root. The first call configures and builds
bench/e2e/build (the ansor library plus the e2e_tune binary, Release);
later calls only rebuild what changed. Each workload runs in its own
e2e_tune process. With --workload, the last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, where the
metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). The full result of every run is written to
bench/e2e/out/<workload>.json and, with --results FILE, appended to FILE
as one JSON line for compare.py. The exit code is non-zero when a
correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BINARY = os.path.join(BUILD, "e2e_tune")
WORKLOADS = ["resnet50-mbv2", "c2d-gpu", "fleet-4job", "warm-restart"]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no ansor sources under %s to build the benchmark from" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "e2e_tune", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build step failed: " + " ".join(step))


def run_binary(args):
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines


def run_workload(name, seed, seconds, trace, smoke, results_path):
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0", "--out", OUT]
    if smoke:
        args.append("--smoke")
    else:
        with open(os.path.join(HERE, "targets.json")) as f:
            target = json.load(f).get(name)
        if target:
            args += ["--target-ms", repr(target["objective_ms"])]
    code, lines = run_binary(args)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines))
        sys.exit("run.py: e2e_tune --workload %s exited %d without a result" % (name, code))
    print("\n".join(lines[:-1]))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name + ".json"), "w") as f:
        json.dump(result, f, indent=1)
    if results_path:
        record = dict(result, trace=trace)
        with open(results_path, "a") as f:
            f.write(json.dumps(record) + "\n")
    return code, result


def result_line(result, trace):
    """The benchmark's one-line result: BENCHMARK.json's metric list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = result["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        measured = section.get(metric["name"])
        if measured is None or measured["value"] is None:
            sys.exit("run.py: %s reported no value for %s" % (result["workload"], metric["name"]))
        metrics[metric["name"]] = {"value": measured["value"], "unit": metric["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print its result line (default: all)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="measure each workload this long (repeats until then)")
    parser.add_argument("--trace", type=int, choices=[0, 1],
                        help="add a traced run (default: 1 for all workloads, 0 for one)")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads at tiny budgets, one run each, checks only")
    parser.add_argument("--results", help="append each run's full result to this JSONL file")
    args = parser.parse_args()

    build()
    if args.workload:
        trace = bool(args.trace)
        code, result = run_workload(args.workload, args.seed, args.seconds, trace, False,
                                    args.results)
        print(json.dumps(result_line(result, trace)))
        return code

    if args.smoke:
        code, lines = run_binary(["--selftest"])
        print("\n".join(lines))
        if code != 0:
            return code
    trace = args.trace != 0
    failed = []
    for name in WORKLOADS:
        code, result = run_workload(name, args.seed, args.seconds, trace, args.smoke,
                                    args.results)
        if code != 0 or not result["correct"]:
            failed.append(name)
        print()
    if failed:
        print("correctness check failed on: " + ", ".join(failed))
        return 1
    print("all %d workloads passed their correctness checks" % len(WORKLOADS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
