#!/usr/bin/env bash
# Telemetry benchmark sweep: runs every optimizer at a standard budget
# with observability on, then assembles their metrics.json reports into
# one BENCH_<date>.json at the repo root. Each embedded report carries
# the routing-reuse counters (routing_rebuilds/routing_hits inside its
# "cache" object), so the hit rate is collated alongside the timing data
# and echoed per run below. Wall-clock figures are machine-dependent
# snapshots, not regression gates — compare them across commits on the
# same machine only.
#
# Usage: scripts/bench.sh [BUDGET] [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."

budget="${1:-2000}"
seed="${2:-11}"
out="BENCH_$(date +%F).json"

echo "==> cargo build --release -p moela-cli"
cargo build --release -p moela-cli

dse=target/release/moela-dse
sweep="$(mktemp -d)"
trap 'rm -rf "$sweep"' EXIT

algorithms=(moela moead moos moo-stage nsga2 random)
for algo in "${algorithms[@]}"; do
    echo "==> $algo (budget $budget, seed $seed)"
    "$dse" run --app HOT --objectives 3 --algorithm "$algo" \
        --budget "$budget" --population 24 --seed "$seed" \
        --run-dir "$sweep/$algo" --log-level quiet
    grep -o '"cache":{[^}]*}' "$sweep/$algo/metrics.json" \
        | sed "s/^/    /" || echo "    (no cache counters in metrics.json)"
done

{
    printf '{"date":"%s","budget":%s,"seed":%s,"app":"HOT","runs":{' \
        "$(date +%F)" "$budget" "$seed"
    sep=""
    for algo in "${algorithms[@]}"; do
        printf '%s"%s":' "$sep" "$algo"
        cat "$sweep/$algo/metrics.json"
        sep=","
    done
    printf '}}\n'
} >"$out"

echo "wrote $out"

# Informational delta against the most recent earlier snapshot; wall
# clocks differ across machines, so this never gates the sweep.
prev="$(ls -1t BENCH_*.json 2>/dev/null | grep -vF "$out" | head -1 || true)"
if [ -n "$prev" ]; then
    echo "==> compare against $prev"
    "$dse" compare "$prev" "$out" \
        || echo "    (not comparable, or a delta past thresholds — informational only)"
else
    echo "no previous BENCH_*.json to compare against"
fi
