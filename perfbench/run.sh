#!/usr/bin/env bash
# Builds the aurora_serve daemon and the benchmark client from the
# checkout in the current directory, then runs the client:
#
#   bash perfbench/run.sh --workload paper-k32 --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of an Aurora checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p aurora-serve --bin aurora_serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/aurora-perfbench" --serve "$CARGO_TARGET_DIR/release/aurora_serve" "$@"
