#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every argument passes through, e.g.
#   bash perfbench/run.sh --workload paper-powerlaw-1k --seed 1 --seconds 25 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/dynaquar-perfbench" "$@"
