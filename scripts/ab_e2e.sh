#!/usr/bin/env bash
# A/B of the end-to-end benchmark: a parent revision against this
# working tree, as alternating pairs, judged by the rule of the
# choosing-metrics guide (§8) and written to BENCH_e2e.json.
#
#   usage: scripts/ab_e2e.sh <parent-ref> [pairs] [seeds…]
#          (10 pairs per seed, seeds 1 and 2, unless given)
#
# The parent is exported (`git archive`) into a directory under target/
# and removed again on exit; benchmark/ is built once per side, each into
# its own directory, and the two executables are then run in turn —
# workload by workload, parent and change back to back, the side that
# goes first alternating from pair to pair. Workloads, metrics, their
# directions and bounds, and the run length all come from
# BENCHMARK.json, so both sides run exactly what the benchmark says.
#
# A metric is a `gain` when the change wins at least 9/10 of the pairs
# (ties count for neither side) and the medians differ by more than the
# distance between the quartiles of the parent's own runs; a
# `regression` when the change's median is worse than the parent's by
# more than the metric's bound; `unresolved` when the parent's own
# spread is wider than that bound; `same` otherwise.
#
# After the pairs, one `--trace 1` run per side and workload on the first
# seed shows where a difference sits: both sides' per-class p50s, shuffle
# records and reduce candidates go into the `layers` array.
#
# Takes (pairs × seeds + 1) × 4 workloads × 2 sides × ~25 s. Timings
# never gate CI; this is run by hand when a change claims a gain.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,7p' "$0"; exit 2; }
parent_ref=$1
pairs=${2:-10}
shift
[ $# -eq 0 ] || shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2)

work=target/ab_e2e
parent_dir=$work/parent
runs=$work/runs.jsonl
mkdir -p "$work"

cleanup() { rm -rf "$parent_dir"; }
trap cleanup EXIT
cleanup
mkdir -p "$parent_dir"
git archive "$parent_ref" | tar -x -C "$parent_dir"

parent_rev=$(git rev-parse --short "$parent_ref")
change_rev=$(git describe --always --dirty)
seconds=$(jq -r .run_seconds BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)

build() { # <side> <checkout>
    CARGO_TARGET_DIR=$work/build-$1 \
        cargo build --release --offline --quiet --manifest-path "$2/benchmark/Cargo.toml"
    cp "$work/build-$1/release/mwtj-e2e" "$work/$1-e2e"
}
build parent "$parent_dir"
build change .

run() { # <side> <seed> <pair> <workload> [trace]: one record of runs.jsonl
    local last
    # A failed op or reference check exits non-zero but still reports;
    # the summary counts it.
    last=$("$work/$1-e2e" --workload "$4" --seed "$2" --seconds "$seconds" --trace "${5:-0}" \
        | tail -n 1) || true
    jq -c --arg side "$1" --argjson seed "$2" --argjson pair "$3" --arg workload "$4" \
        '{side: $side, seed: $seed, pair: $pair, workload: $workload, result: .}' \
        <<<"$last" >>"$runs"
}

: >"$runs"
for seed in "${seeds[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then order=(parent change); else order=(change parent); fi
        for workload in "${workloads[@]}"; do
            for side in "${order[@]}"; do
                run "$side" "$seed" "$pair" "$workload"
            done
        done
        echo "ab_e2e: seed $seed pair $pair/$pairs done" >&2
    done
done
# The traced runs: pair 0, per-layer metrics only.
for workload in "${workloads[@]}"; do
    for side in parent change; do
        run "$side" "${seeds[0]}" 0 "$workload" 1
    done
done
echo "ab_e2e: traced runs done" >&2

python3 - "$runs" "$parent_rev" "$change_rev" "$(nproc)" <<'EOF' >"$work/BENCH_e2e.json"
import json, re, statistics, sys

runs_path, parent_rev, change_rev, host_threads = sys.argv[1:5]
bench = json.load(open("BENCHMARK.json"))
all_runs = [json.loads(line) for line in open(runs_path)]
runs = [r for r in all_runs if r["pair"] > 0]
traced = {(r["workload"], r["side"]): r for r in all_runs if r["pair"] == 0}

def side_summary(values):
    one_run = len(values) < 2
    q1, median, q3 = values * 3 if one_run else statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}

results, failed = [], []
seeds = sorted({r["seed"] for r in runs})
for seed in seeds:
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["seed"] == seed and r["workload"] == workload]
        by_side = {
            side: {r["pair"]: r["result"] for r in mine if r["side"] == side}
            for side in ("parent", "change")
        }
        for side, by_pair in by_side.items():
            failed.append({
                "seed": seed, "workload": workload, "side": side, "runs": len(by_pair),
                "attempted": sum(r["attempted"] for r in by_pair.values()),
                "failed": sum(r["failed"] for r in by_pair.values()),
                "incorrect_runs": sum(not r["correct"] for r in by_pair.values()),
            })
        pairs = sorted(set(by_side["parent"]) & set(by_side["change"]))
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            value = lambda side, pair: by_side[side][pair]["metrics"][name]["value"]
            parent = [value("parent", p) for p in pairs]
            change = [value("change", p) for p in pairs]
            better = lambda a, b: a < b if lower else a > b
            won = sum(better(c, p) for c, p in zip(change, parent))
            lost = sum(better(p, c) for c, p in zip(change, parent))
            ps, cs = side_summary(parent), side_summary(change)
            spread = ps["q3"] - ps["q1"]
            gap = cs["median"] - ps["median"]
            improved = better(cs["median"], ps["median"])
            if won >= 0.9 * len(pairs) and improved and abs(gap) > spread:
                verdict = "gain"
            elif not improved and abs(gap) > metric["bound"] * abs(ps["median"]):
                verdict = "regression"
            elif spread > metric["bound"] * abs(ps["median"]):
                verdict = "unresolved"
            else:
                verdict = "same"
            results.append({
                "seed": seed, "workload": workload, "metric": name, "unit": metric["unit"],
                "better": metric["better"], "bound": metric["bound"], "parent": ps, "change": cs,
                "pairs": len(pairs), "pairs_won": won, "pairs_lost": lost,
                "ties": len(pairs) - won - lost, "verdict": verdict,
            })

# Where a difference sits: the traced runs' per-class p50s (classes the
# workload runs) and the priced shuffle and reduce volume, both sides.
layers = []
shown = re.compile(r"class\..*\.p50_ms|mapreduce\.shuffle_records|join\.reduce_candidates")
for workload in [w["name"] for w in bench["workloads"]]:
    sides = [traced.get((workload, side)) for side in ("parent", "change")]
    if None in sides:
        continue
    value = lambda side, name: side["result"]["metrics"].get(name, {}).get("value", 0)
    for metric in bench["per_layer"]:
        name = metric["name"]
        p, c = (value(side, name) for side in sides)
        if shown.fullmatch(name) and (p or c):
            layers.append({"seed": sides[0]["seed"], "workload": workload, "metric": name,
                           "unit": metric["unit"], "parent": p, "change": c})

lines = lambda rows: ",\n".join("    " + json.dumps(row) for row in rows)
print("{")
print('  "bench": "e2e_ab",')
print(f'  "parent": "{parent_rev}",')
print(f'  "change": "{change_rev}",')
print(f'  "host_threads": {host_threads},')
print(f'  "run_seconds": {bench["run_seconds"]},')
print(f'  "seeds": {seeds},')
print('  "rule": "gain = change wins >= 9/10 of the alternating pairs (ties for neither) and the medians '
      'differ by more than the parent\'s q3 - q1; regression = change median worse by more than bound x '
      'parent median; unresolved = parent q3 - q1 wider than that bound",')
print('  "results": [')
print(lines(results))
print("  ],")
print('  "layers": [')
print(lines(layers))
print("  ],")
print('  "ops": [')
print(lines(failed))
print("  ]")
print("}")
EOF
mv "$work/BENCH_e2e.json" BENCH_e2e.json

echo "ab_e2e: wrote BENCH_e2e.json" >&2
jq -r '.results[] | select(.verdict != "same")
       | "\(.verdict)\tseed \(.seed)\t\(.workload)\t\(.metric)\t\(.parent.median) -> \(.change.median) \(.unit)\t\(.pairs_won)/\(.pairs) pairs"' \
    BENCH_e2e.json >&2
