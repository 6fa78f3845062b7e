#!/usr/bin/env bash
# Builds the repository's `msgc` and the benchmark from source, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-meta --seed 1 --seconds 12 --trace 0
#   bash perfbench/run.sh diff old.jsonl new.jsonl
#
# Both builds share $CARGO_TARGET_DIR (default: target/). Build output goes
# to stderr, so the last line on stdout is the benchmark's JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline --bin msgc >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --msgc "$CARGO_TARGET_DIR/release/msgc"
