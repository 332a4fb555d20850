#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Builds benchmark/build/swordfish_bench from the checkout (the first run
configures and compiles; later runs are a no-op build check), runs the
workload, and prints as the last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where metrics holds every end_to_end metric of BENCHMARK.json (--trace 0)
or every per_layer metric (--trace 1). The per-metric lines of
swordfish_bench are echoed to stderr. Exits non-zero, printing no result,
when the build or the run fails or a metric is missing.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "swordfish_bench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then let the build tool rebuild what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "swordfish_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_bench(args, trace_file):
    """Run swordfish_bench in its own process group; return its stdout."""
    cmd = [BINARY, "--seed", str(args.seed), "--workload", args.workload,
           "--seconds", str(args.seconds)]
    if trace_file:
        cmd += ["--trace", trace_file]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: swordfish_bench timed out")
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit("run.py: unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
        trace_file = os.path.join(
            BUILD, "trace", "%s-%d.jsonl" % (args.workload, args.seed))
    code, out = run_bench(args, trace_file)
    sys.stderr.write(out)

    values, gates = {}, []
    for line in out.splitlines():
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        if rec.get("workload") != args.workload:
            continue
        if "metric" in rec:
            values[rec["metric"]] = rec
        elif "gate" in rec:
            gates.append(rec["pass"])

    metrics = {}
    for m in wanted:
        rec = values.get(m["name"])
        if rec is None or rec["unit"] != m["unit"]:
            sys.exit("run.py: %s did not report %s" % (args.workload,
                                                       m["name"]))
        metrics[m["name"]] = {"value": rec["value"], "unit": rec["unit"]}
    if "attempted" not in values or "failed" not in values:
        sys.exit("run.py: %s did not report its operation counts"
                 % args.workload)
    result = {
        "correct": code == 0 and bool(gates) and all(gates),
        "attempted": int(values["attempted"]["value"]),
        "failed": int(values["failed"]["value"]),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
