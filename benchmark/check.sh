#!/usr/bin/env bash
# Build, unit tests, then every workload at 1/20 size with 2-second
# windows and the traced pass: checks correctness against the
# reference and that every metric is emitted. Under 30 s once built.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- --workload all --quick --trace 1
