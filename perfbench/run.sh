#!/usr/bin/env bash
# Builds `hka-sim` and the benchmark from source, then makes one run.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Builds go to $CARGO_TARGET_DIR
# (default .bench_build); journals go to .bench_work and are removed
# when the run ends. The last line of standard output is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ]; then
    echo "perfbench: no Cargo.toml here: run from a repository checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin hka-sim >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hka-perfbench" \
    --hka-sim "$CARGO_TARGET_DIR/release/hka-sim" --work-dir .bench_work "$@"
