#!/usr/bin/env bash
# Repeatability check: run the full set of workloads twice, back to back, on
# one commit, and compare each (workload, end-to-end metric) pair of the two
# sets against the metric's bound in BENCHMARK.json.
#
#   benchmark/repeat_check.sh [RUNS] [SECONDS]
#
# A set runs every workload on seeds 1..RUNS (default 3) for SECONDS each
# (default: BENCHMARK.json's run_seconds) and takes the median per metric,
# as a commit comparison does. Prints one row per pair: both medians, their
# ratio (second / first), and PASS when |ratio - 1| <= bound. Exits 1 when
# any pair fails or a run fails.
set -euo pipefail

cd "$(dirname "$0")/.."
runs="${1:-3}"
seconds="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
out=benchmark/build/repeat
mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in 1 2; do
    for w in $workloads; do
        for seed in $(seq 1 "$runs"); do
            python3 benchmark/run.py --workload "$w" --seed "$seed" \
                --seconds "$seconds" --trace 0 2> "$out/$set.$w.$seed.log" \
                | tail -n 1 > "$out/$set.$w.$seed.json"
        done
    done
done

python3 - "$out" "$runs" $workloads <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
bounds = {m["name"]: m["bound"]
          for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
failed = False
print("%-20s %-19s %12s %12s %8s %6s  %s"
      % ("workload", "metric", "set 1", "set 2", "ratio", "bound", "result"))
for w in workloads:
    medians = []
    for s in (1, 2):
        values = {name: [] for name in bounds}
        for seed in range(1, runs + 1):
            path = "%s/%d.%s.%d" % (out, s, w, seed)
            try:
                result = json.load(open(path + ".json"))
            except ValueError:
                print("%-20s set %d seed %d failed (see %s.log)"
                      % (w, s, seed, path))
                failed = True
                continue
            if not result["correct"]:
                print("%-20s set %d seed %d incorrect" % (w, s, seed))
                failed = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        if all(values.values()):
            medians.append({k: statistics.median(v) for k, v in values.items()})
    if len(medians) < 2:
        continue
    for name, bound in bounds.items():
        a, b = medians[0][name], medians[1][name]
        ratio = b / a if a else float("inf")
        ok = abs(ratio - 1.0) <= bound
        failed = failed or not ok
        print("%-20s %-19s %12.4f %12.4f %8.4f %6.2f  %s"
              % (w, name, a, b, ratio, bound, "PASS" if ok else "FAIL"))
sys.exit(1 if failed else 0)
EOF
