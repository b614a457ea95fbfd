#!/usr/bin/env bash
# A/A: the whole suite twice on one build and one seed. Fails if any
# end-to-end metric differs between the two by more than its own bound,
# or if sim_makespan_s or a deterministic layer count differs at all.
#   usage: benchmark/aa.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")"
seed="${1:-1}"
seconds="${2:-20}"
cargo build --release --offline
mkdir -p out
for pass in 1 2; do
    cargo run --release --offline --quiet -- \
        --workload all --seed "$seed" --seconds "$seconds" --trace 1 | tee "out/aa-$pass.txt"
done
cargo run --release --offline --quiet -- --aa out/aa-1.txt out/aa-2.txt
