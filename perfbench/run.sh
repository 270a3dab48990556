#!/usr/bin/env bash
# Builds the release `hre` daemon and the benchmark from this checkout,
# then runs one workload. Run from the repository root, for example:
#   bash perfbench/run.sh --workload hot-rotations --seed 1 --seconds 36 --trace 0
# Build output goes to stderr; the report and its closing JSON line to stdout.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -f crates/svc/Cargo.toml || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (needs Cargo.toml, crates/ and perfbench/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --bin hre >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --hre "$CARGO_TARGET_DIR/release/hre" "$@"
