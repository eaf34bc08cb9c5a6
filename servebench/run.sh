#!/usr/bin/env bash
# Builds the release `fdi` binary and the benchmark from source, then
# runs one benchmark run. Run from the repository root:
#
#   bash servebench/run.sh --workload <ingest|read|mixed> --seed <n> \
#        --seconds <s> --trace <0|1> [--smoke]
#
# Build output goes to standard error; the last line of standard output
# is the run's JSON result. Build artefacts and run files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -d servebench ]; then
    echo "servebench: run from the repository root (it builds fdi from source)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin fdi >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/servebench" \
    --fdi "$CARGO_TARGET_DIR/release/fdi" \
    --workdir "$CARGO_TARGET_DIR/servebench" \
    "$@"
