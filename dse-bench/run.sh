#!/usr/bin/env bash
# Builds moela-dse and dse-bench from source into one target directory,
# then runs dse-bench with the given arguments (see README.md), e.g.
#
#   bash dse-bench/run.sh run --seed 11
#   bash dse-bench/run.sh compare base.json cand.json
#
# CARGO_TARGET_DIR, when set, is used for both builds; otherwise the
# repository's target/ is. Build output goes to stderr so the last line
# of stdout stays the run's JSON summary.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p moela-cli >&2
cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/dse-bench" "$@"
