#!/usr/bin/env bash
# Is HEAD worse than <base-sha> by the repo benchmark (BENCHMARK.json)?
#
#   scripts/bench-pairs.sh <base-sha>
#
# Builds the benchmark harness (benchmark/) of <base-sha> ("parent") and of
# HEAD ("change") in two clean checkouts, then runs PAIRS pairs of
#
#   suite --quick --runs 1 --seed <pair>
#
# with the side that goes first alternating pair by pair (the machine drifts;
# a fixed order would charge the drift to one side). It merges each side's run
# arrays into one file and exits with the status of
#
#   compare parent.json change.json
#
# run by the parent's harness against the parent's bounds: 0 when no
# end-to-end metric is worse and no more jobs failed, 1 otherwise. The merged
# files, the run logs and the comparison are left in target/bench-pairs/.
set -euo pipefail

PAIRS=3

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/bench-pairs.sh <base-sha>" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
head=$(git -C "$root" rev-parse --verify HEAD)
out="$root/target/bench-pairs"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
rm -rf "$out"
mkdir -p "$out"

# Runs <side>'s harness from the root of its checkout, as BENCHMARK.json does.
harness() {
    local side=$1
    shift
    (cd "$work/$side" &&
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}

# Extracts <sha> into $work/<side> and builds its harness there.
build() {
    local side=$1 sha=$2
    mkdir "$work/$side"
    git -C "$root" archive "$sha" | tar -x -C "$work/$side"
    echo "bench-pairs: building $side ($sha)" >&2
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
}

# One quick suite of <side> with seed <seed>.
suite() {
    local side=$1 seed=$2
    local log="$out/$side-$seed.log"
    echo "bench-pairs: $side, seed $seed" >&2
    if ! harness "$side" suite --quick --runs 1 --seed "$seed" \
        --out "$out/$side-$seed.json" >"$log" 2>&1; then
        tail -n 20 "$log" >&2
        echo "bench-pairs: $side, seed $seed failed (log: $log)" >&2
        exit 1
    fi
}

build parent "$base"
build change "$head"
for seed in $(seq 1 "$PAIRS"); do
    if ((seed % 2)); then
        suite parent "$seed"
        suite change "$seed"
    else
        suite change "$seed"
        suite parent "$seed"
    fi
done

# Concatenates, per workload and metric, the value arrays of every run.
for side in parent change; do
    jq -s '{
        runs: (map(.runs) | add),
        seeds: map(.seed),
        quick: true,
        workloads: (reduce (.[].workloads | to_entries[] | .key as $w
                            | .value | to_entries[] | [$w, .key, .value]) as $e
                    ({}; .[$e[0]][$e[1]] += $e[2]))
    }' "$out/$side"-*.json >"$out/$side.json"
done

status=0
harness parent compare "$out/parent.json" "$out/change.json" | tee "$out/compare.txt" || status=$?
echo "bench-pairs: $PAIRS pairs in ${SECONDS}s" >&2
exit "$status"
