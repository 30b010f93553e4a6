#!/usr/bin/env bash
# bench-compare: run the repository benchmark (bench/, contract in
# BENCHMARK.json) on a base commit and on this working tree, then compare.
#
#   scripts/bench-compare.sh <base-ref>
#
# The base commit is exported into a temporary directory, so each side
# builds its own binary from its own source into its own .bench_build/.
# Every workload runs for three seeds with the side that goes first
# alternating, and each run is appended to parent.json or head.json
# (kept under .bench_build/compare/). The head tree's -compare then
# decides: any end-to-end metric `worse` than its bound fails; workloads
# with an `unresolved` row (quartile spread wider than the bound, or a
# metric missing on one side) run three more seeds on both sides, and
# what is still unresolved after that is reported as a warning only.
set -euo pipefail
cd "$(dirname "$0")/.."
head=$PWD

base=${1:-}
if [ -z "$base" ] || [ -z "${base//0/}" ]; then
    # No base (a push that created the branch reports an all-zero sha).
    echo "::warning::bench-compare: no base commit to compare against"
    exit 0
fi
base=$(git rev-parse --verify "$base^{commit}")

workloads="ward_pipeline durable_evidence federated_relay reconfig_compliance"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)

out="$head/.bench_build/compare"
mkdir -p "$out"
rm -f "$out/parent.json" "$out/head.json"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"
if [ ! -f "$tmp/bench/run.sh" ]; then
    echo "::warning::bench-compare: base ${base:0:12} has no bench/; nothing to compare"
    exit 0
fi

# run_one DIR RESULTS WORKLOAD SEED
run_one() {
    echo "=== ${2##*/} $3 seed $4"
    (cd "$1" && bash bench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 -out "$2")
}

# run_round "WORKLOADS" SEED... — both sides; which goes first alternates
# from one seed to the next for each workload, and between workloads.
run_round() {
    local wls=$1 seed wl i
    shift
    for seed in "$@"; do
        i=$seed
        for wl in $wls; do
            if [ $((i % 2)) -eq 0 ]; then
                run_one "$tmp" "$out/parent.json" "$wl" "$seed"
                run_one "$head" "$out/head.json" "$wl" "$seed"
            else
                run_one "$head" "$out/head.json" "$wl" "$seed"
                run_one "$tmp" "$out/parent.json" "$wl" "$seed"
            fi
            i=$((i + 1))
        done
    done
}

# compare writes the -compare table to $out/compare.txt and echoes it;
# exit status 2 (a broken result file) aborts the script.
compare() {
    local code=0
    bash bench/run.sh -compare "$out/parent.json" "$out/head.json" > "$out/compare.txt" || code=$?
    cat "$out/compare.txt"
    if [ "$code" -gt 1 ]; then
        echo "::error::bench-compare: -compare failed (exit $code)"
        exit "$code"
    fi
}

# rows VERDICT prints "workload metric" for every row with that verdict.
rows() {
    awk -v v="$1" '/^[^ ]/ { wl = $1 } /^  / && $NF == v { print wl, $1 }' "$out/compare.txt"
}

fail_on_worse() {
    local worse
    worse=$(rows worse)
    if [ -n "$worse" ]; then
        echo "$worse" | while read -r wl metric; do
            echo "::error::bench-compare: $wl $metric is worse than its BENCHMARK.json bound"
        done
        exit 1
    fi
}

run_round "$workloads" 1 2 3
compare
fail_on_worse

unresolved=$(rows unresolved | awk '{ print $1 }' | sort -u | tr '\n' ' ')
if [ -n "$unresolved" ]; then
    echo "=== unresolved on: $unresolved— three more seeds on both sides"
    run_round "$unresolved" 4 5 6
    compare
    fail_on_worse
    rows unresolved | while read -r wl metric; do
        echo "::warning::bench-compare: $wl $metric unresolved (spread wider than its bound)"
    done
fi
echo "bench-compare: no end-to-end metric worse than its bound (results in ${out#"$head"/})"
