#!/usr/bin/env bash
# Build the benchmark in release and run it. See benchmark/README.md.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
#   benchmark/run.sh [--seed N] [--seconds S] [--trace]      every workload
#   benchmark/run.sh --compare A.json B.json
#
# Run it from the root of the checkout. The build is offline: every
# dependency is a path inside the repository.
set -euo pipefail

dir=$(dirname "$0")
export TOPOMAP_BENCH_DIR=$dir
target=${CARGO_TARGET_DIR:-$dir/target}

# Cargo's progress goes to stderr; standard output carries results only.
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" >&2

exec "$target/release/topomap-benchmark" "$@"
