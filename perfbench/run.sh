#!/usr/bin/env bash
# Builds failctl and the benchmark harness from this checkout, then runs
# one workload:
#
#   bash perfbench/run.sh --workload cli-year --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the harness prints its result as the last
# line of stdout. Artifacts land in $CARGO_TARGET_DIR (default
# .bench_build) and inputs in .bench_work, both inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p failctl >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --failctl "$CARGO_TARGET_DIR/release/failctl" "$@"
