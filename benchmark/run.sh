#!/usr/bin/env bash
# One command: release build, then every workload untraced and traced.
# Prints every metric by name and unit, writes one Chrome trace per
# workload to benchmark/out/, and fails if any oracle fails.
# Extra arguments go to `all` (e.g. --seed 7, --smoke).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --manifest-path benchmark/Cargo.toml
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
    all --trace-dir benchmark/out "$@"
