#!/usr/bin/env bash
# Runs the benchmark as a set: builds once, runs every workload RUNS
# times, each run in its own process with seeds SEED, SEED+1, ..., then
# makes one traced run per workload at SEED.
#
#   benchmark/run.sh OUT_DIR [RUNS=5] [SEED=1]
#
# OUT_DIR receives <workload>.<seed>.out (the standard output of each
# run), <workload>.traced.log and <workload>.trace.json. Compare two sets
# from the repository root with
#
#   "${CARGO_TARGET_DIR:-benchmark/target}"/release/pmcf_benchmark compare DIR_A DIR_B
#
# Run from anywhere; paths are taken from the repository root.
set -euo pipefail

out=${1:?usage: benchmark/run.sh OUT_DIR [RUNS] [SEED]}
runs=${2:-5}
seed=${3:-1}

root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)
cd "$root"

cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
target=${CARGO_TARGET_DIR:-benchmark/target}
bin="$target/release/pmcf_benchmark"
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n 's/^ *{"name": *"\([a-z-]*\)", *"why".*/\1/p' BENCHMARK.json)

# Workloads interleave within each round, so a slow spell on the machine
# spreads over all of them instead of landing on one.
for ((i = 0; i < runs; i++)); do
    s=$((seed + i))
    for w in $workloads; do
        "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$w.$s.out"
        echo "$w seed $s: $(tail -n 1 "$out/$w.$s.out")"
    done
done
for w in $workloads; do
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
        --trace-out "$out/$w.trace.json" >"$out/$w.traced.log"
    echo "$w traced: $(tail -n 1 "$out/$w.traced.log" | cut -c 1-80)..."
done
