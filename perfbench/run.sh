#!/usr/bin/env bash
# Builds the benchmark from source (offline, locked) and runs it:
#
#   bash perfbench/run.sh --workload put-tcp --seed 1 --seconds 10 --trace 0
#
# Build output goes to standard error, so the result object stays the
# last line of standard output. Honours CARGO_TARGET_DIR.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" "$@"
