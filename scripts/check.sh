#!/usr/bin/env bash
# Repo gate: formatting, lints, build, and the full test suite.
# CI runs exactly this script (see .github/workflows/ci.yml); run it
# locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> dse-bench builds and passes against the workspace API"
cargo test --manifest-path dse-bench/Cargo.toml -q

echo "==> resume smoke (crash + resume is byte-identical)"
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
dse=target/release/moela-dse
flags=(--app BFS --objectives 3 --algorithm moela --budget 120 --population 8 --seed 7)
"$dse" run "${flags[@]}" --run-dir "$smoke/full" >/dev/null
"$dse" run "${flags[@]}" --run-dir "$smoke/crashed" --crash-after-checkpoints 1 \
    >/dev/null 2>&1 && { echo "crash injection did not abort"; exit 1; }
"$dse" resume "$smoke/crashed" >/dev/null
cmp "$smoke/full/trace.csv" "$smoke/crashed/trace.csv"
cmp "$smoke/full/front.csv" "$smoke/crashed/front.csv"
# A later crash, resumed at another thread count, must match as well.
"$dse" run "${flags[@]}" --run-dir "$smoke/crashed-late" --crash-after-checkpoints 2 \
    >/dev/null 2>&1 && { echo "crash injection did not abort"; exit 1; }
"$dse" resume "$smoke/crashed-late" --threads 4 >/dev/null
cmp "$smoke/full/trace.csv" "$smoke/crashed-late/trace.csv"
cmp "$smoke/full/front.csv" "$smoke/crashed-late/front.csv"
# The other optimizers checkpoint their own schemas.
for algo in moo-stage moos moead nsga2 random; do
    algo_flags=("${flags[@]}" --algorithm "$algo")
    "$dse" run "${algo_flags[@]}" --run-dir "$smoke/$algo-full" >/dev/null
    "$dse" run "${algo_flags[@]}" --run-dir "$smoke/$algo-crashed" --crash-after-checkpoints 2 \
        >/dev/null 2>&1 && { echo "crash injection did not abort"; exit 1; }
    "$dse" resume "$smoke/$algo-crashed" --threads 4 >/dev/null
    cmp "$smoke/$algo-full/trace.csv" "$smoke/$algo-crashed/trace.csv"
    cmp "$smoke/$algo-full/front.csv" "$smoke/$algo-crashed/front.csv"
done

echo "==> chaos smoke (faults contained, kill + resume under chaos byte-identical)"
chaos_flags=("${flags[@]}" --chaos panic=0.03,nan=0.03,arity=0.02 --chaos-seed 41
    --fault-policy penalize-worst --eval-retries 1)
"$dse" run "${chaos_flags[@]}" --run-dir "$smoke/chaos-full" >/dev/null
test ! -e "$smoke/chaos-full/health.json" \
    || { echo "health.json is retired and must no longer be written"; exit 1; }
grep -o '"faults":{[^}]*}' "$smoke/chaos-full/metrics.json" | grep -q '"total":0' \
    && { echo "chaos spec did not inject any faults"; exit 1; }
"$dse" run "${chaos_flags[@]}" --run-dir "$smoke/chaos-crashed" --crash-after-checkpoints 1 \
    >/dev/null 2>&1 && { echo "crash injection did not abort"; exit 1; }
"$dse" resume "$smoke/chaos-crashed" --threads 4 >/dev/null
cmp "$smoke/chaos-full/trace.csv" "$smoke/chaos-crashed/trace.csv"
cmp "$smoke/chaos-full/front.csv" "$smoke/chaos-crashed/front.csv"
# metrics.json carries wall-clock data, so compare only the fault counters.
full_faults="$(grep -o '"faults":{[^}]*}' "$smoke/chaos-full/metrics.json")"
crashed_faults="$(grep -o '"faults":{[^}]*}' "$smoke/chaos-crashed/metrics.json")"
[ "$full_faults" = "$crashed_faults" ] \
    || { echo "fault counters differ after chaotic crash + resume"; exit 1; }

echo "==> cache smoke (routing counters land in metrics.json)"
grep -o '"cache":{[^}]*}' "$smoke/full/metrics.json" | grep -q '"routing_hits":[1-9]' \
    || { echo "the default run reused no routing table"; exit 1; }
grep -o '"cache":{[^}]*}' "$smoke/full/metrics.json" | grep -q '"routing_rebuilds":[1-9]' \
    || { echo "no routing table was ever built"; exit 1; }
# Self-check: a deliberately wrong cached table must fail the harness.
cargo test -q -p moela-manycore --features routing-fault --test eval_cache

echo "==> serve smoke (served job matches moela-dse run byte-for-byte; drain exits 0)"
"$dse" serve --addr 127.0.0.1:0 --addr-file "$smoke/addr" --run-root "$smoke/jobs" \
    --workers 1 --queue-depth 4 >/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$smoke/addr" ] && break; sleep 0.1; done
[ -s "$smoke/addr" ] || { echo "server never wrote its address file"; exit 1; }
addr="$(cat "$smoke/addr")"
spec='{"app":"BFS","objectives":3,"algorithm":"moela","budget":120,"population":8,"seed":7}'
job="$(curl -sf -X POST "http://$addr/jobs" --data "$spec" \
    | grep -o '"id":"[^"]*"' | cut -d'"' -f4)"
[ -n "$job" ] || { echo "job submission returned no id"; exit 1; }
state=""
for _ in $(seq 1 600); do
    # The first "state" is the job's own; later ones are its history.
    state="$(curl -sf "http://$addr/jobs/$job" | grep -o '"state":"[^"]*"' | head -n 1 \
        | cut -d'"' -f4)"
    [ "$state" = "done" ] && break
    case "$state" in failed|cancelled|interrupted)
        echo "served job ended $state"; exit 1;;
    esac
    sleep 0.1
done
[ "$state" = "done" ] || { echo "served job never finished (state: ${state:-unknown})"; exit 1; }
curl -sf "http://$addr/metrics" | grep -q '"jobs_completed":1' \
    || { echo "/metrics did not count the completed job"; exit 1; }
curl -sf -X POST "http://$addr/shutdown" >/dev/null
wait "$serve_pid" || { echo "drain did not exit 0"; exit 1; }
for artifact in trace.csv front.csv trace.json front.json; do
    cmp "$smoke/full/$artifact" "$smoke/jobs/$job/$artifact"
done

echo "==> obs smoke (telemetry artifacts exist; deterministic artifacts untouched)"
"$dse" run "${flags[@]}" --run-dir "$smoke/traced" --progress --log-level debug \
    2>/dev/null >/dev/null
test -s "$smoke/traced/events.jsonl" || { echo "events.jsonl missing or empty"; exit 1; }
test -s "$smoke/traced/metrics.json" || { echo "metrics.json missing or empty"; exit 1; }
grep -q '"type":"enter"' "$smoke/traced/events.jsonl"
grep -q '"evals_per_sec":' "$smoke/traced/metrics.json"
grep -q '"phases":' "$smoke/traced/metrics.json"
# Every evaluation the run paid for, the initial population's included,
# reaches the evaluations counter exactly once.
python3 - "$smoke/full" <<'EOF'
import json, sys
run = sys.argv[1]
counted = json.load(open(f"{run}/metrics.json"))["telemetry"]["counters"]["evaluations"]
paid = json.load(open(f"{run}/trace.json"))["points"][-1]["evaluations"]
if counted != paid:
    sys.exit(f"metrics.json counts {counted} evaluations, trace.json ends at {paid}")
EOF
cmp "$smoke/full/trace.csv" "$smoke/traced/trace.csv"
cmp "$smoke/full/front.csv" "$smoke/traced/front.csv"
quiet_out="$("$dse" run "${flags[@]}" --log-level quiet)"
[ -z "$quiet_out" ] || { echo "--log-level quiet printed to stdout"; exit 1; }

echo "==> report smoke (report.json + Perfetto trace; compare gates regressions)"
"$dse" report "$smoke/traced" >/dev/null
test -s "$smoke/traced/report.json" || { echo "report.json missing or empty"; exit 1; }
test -s "$smoke/traced/trace.chrome.json" \
    || { echo "trace.chrome.json missing or empty"; exit 1; }
grep -q '"convergence":' "$smoke/traced/report.json"
grep -q '"traceEvents":' "$smoke/traced/trace.chrome.json"
python3 -m json.tool "$smoke/traced/trace.chrome.json" >/dev/null \
    || { echo "trace.chrome.json is not valid JSON"; exit 1; }
# report is a pure reader: the deterministic artifacts must not move.
cmp "$smoke/full/trace.csv" "$smoke/traced/trace.csv"
cmp "$smoke/full/front.csv" "$smoke/traced/front.csv"
"$dse" compare "$smoke/traced" "$smoke/traced" >/dev/null \
    || { echo "self-compare must exit 0"; exit 1; }
bench="$smoke/doctored-bench.json"
{
    printf '{"runs":{"moela":'
    sed -E 's/"evals_per_sec":[0-9.eE+-]+/"evals_per_sec":99999999.0/' \
        "$smoke/traced/metrics.json"
    printf '}}'
} >"$bench"
set +e
"$dse" compare "$bench" "$smoke/traced" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "doctored regression must exit 3 (got $rc)"; exit 1; }

echo "All checks passed."
