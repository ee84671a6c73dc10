#!/usr/bin/env bash
# Telemetry benchmark sweep: runs every optimizer three times at a
# standard budget with observability on, then assembles one
# BENCH_<date>.json at the repo root. "runs" holds each algorithm's median
# run's metrics.json (median by wall time; the runs are deterministic, so
# evals_per_sec orders them the same way) and "spread" holds the min,
# median and max of evals_per_sec and wall_us over the three. Each
# embedded report carries the routing-reuse counters
# (routing_rebuilds/routing_hits inside its "cache" object), so the hit
# rate is collated alongside the timing data and echoed per algorithm
# below. Wall-clock figures are machine-dependent snapshots, not
# regression gates — compare them across commits on the same machine
# only.
#
# Usage: scripts/bench.sh [BUDGET] [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."

budget="${1:-2000}"
seed="${2:-11}"
repeats=3
out="BENCH_$(date +%F).json"

echo "==> cargo build --release -p moela-cli"
cargo build --release -p moela-cli

dse=target/release/moela-dse
sweep="$(mktemp -d)"
trap 'rm -rf "$sweep"' EXIT

algorithms=(moela moead moos moo-stage nsga2 random)
for algo in "${algorithms[@]}"; do
    for k in $(seq 1 "$repeats"); do
        echo "==> $algo (budget $budget, seed $seed, run $k of $repeats)"
        "$dse" run --app HOT --objectives 3 --algorithm "$algo" \
            --budget "$budget" --population 24 --seed "$seed" \
            --run-dir "$sweep/$algo/$k" --log-level quiet
    done
    grep -o '"cache":{[^}]*}' "$sweep/$algo/1/metrics.json" \
        | sed "s/^/    /" || echo "    (no cache counters in metrics.json)"
done

python3 - "$sweep" "$out" "$(date +%F)" "$budget" "$seed" "$repeats" "${algorithms[@]}" <<'PY'
import json
import sys

sweep, out, date, budget, seed, repeats = sys.argv[1:7]
algorithms = sys.argv[7:]
runs, spread = {}, {}
for algo in algorithms:
    paths = [f"{sweep}/{algo}/{k}/metrics.json" for k in range(1, int(repeats) + 1)]
    reports = [json.load(open(path)) for path in paths]
    reports.sort(key=lambda r: r["telemetry"]["wall_us"])
    runs[algo] = reports[len(reports) // 2]
    spread[algo] = {}
    for metric in ("evals_per_sec", "wall_us"):
        values = sorted(r["telemetry"][metric] for r in reports)
        spread[algo][metric] = {
            "min": values[0],
            "median": values[len(values) // 2],
            "max": values[-1],
        }
    rate = spread[algo]["evals_per_sec"]
    print(f"    {algo}: evals_per_sec min {rate['min']:.0f}, median {rate['median']:.0f}, "
          f"max {rate['max']:.0f}")
doc = {
    "date": date,
    "budget": int(budget),
    "seed": int(seed),
    "app": "HOT",
    "repeats": int(repeats),
    "runs": runs,
    "spread": spread,
}
with open(out, "w") as f:
    json.dump(doc, f, separators=(",", ":"))
    f.write("\n")
PY

echo "wrote $out"

# Informational delta against the most recent earlier snapshot, by the
# date in its name (a fresh checkout gives every snapshot the same
# mtime); wall clocks differ across machines, so this never gates the
# sweep.
prev="$(ls -1 BENCH_*.json 2>/dev/null | grep -vF "$out" | tail -1 || true)"
if [ -n "$prev" ]; then
    echo "==> compare against $prev"
    "$dse" compare "$prev" "$out" \
        || echo "    (not comparable, or a delta past thresholds — informational only)"
else
    echo "no previous BENCH_*.json to compare against"
fi
