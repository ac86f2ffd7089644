#!/usr/bin/env bash
# Alternating parent/change benchmark pairs for one workload.
#
#   scripts/bench_pairs.sh REV WORKLOAD [PAIRS] [SEED]
#
# Side A is commit REV, exported with `git archive` into
# target/bench_pairs/src-<sha>; side B is the working tree. Both
# benchmarks (benchmark/, see BENCHMARK.json) are built in release mode,
# offline, each in its own target directory. The script then runs PAIRS
# pairs (default 10) of WORKLOAD at BENCHMARK.json's run_seconds,
# alternating which side goes first, each side in its own working
# directory, with `--seed SEED` when SEED is given. Each run's stdout is
# appended to target/bench_pairs/<workload>-<sha12>/A.json or B.json,
# and its stderr to A.log or B.log, where <sha12> is the first 12 hex
# digits of REV's commit. So repeated invocations against one parent
# add runs, and pairs against another parent never mix with them;
# delete that directory to start over. Finally it prints side B's
# `--compare A.json B.json` and exits with its status. It edits nothing
# under benchmark/.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REV WORKLOAD [PAIRS] [SEED]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-}
cd "$(git rev-parse --show-toplevel)"
root=$PWD

sha=$(git rev-parse --verify "$rev^{commit}")
out=$root/target/bench_pairs
src=$out/src-$sha
if [ ! -d "$src" ]; then
    rm -rf "$src.tmp"
    mkdir -p "$src.tmp"
    git archive "$sha" | tar -x -C "$src.tmp"
    mv "$src.tmp" "$src"
fi

# build SIDE CHECKOUT
build() {
    echo "bench_pairs: building side $1 from $2" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml" --target-dir "$out/target-$1"
}
build A "$src"
build B "$root"

seconds=$(sed -n 's/^ *"run_seconds": *\([0-9.]*\).*/\1/p' "$root/BENCHMARK.json")
if [ -z "$seconds" ]; then
    echo "bench_pairs: no run_seconds in BENCHMARK.json" >&2
    exit 1
fi
results=$out/$workload-${sha:0:12}
mkdir -p "$results" "$out/work-A" "$out/work-B"

# run SIDE: one benchmark run, from the side's own working directory so
# the two sides never share an artifact store.
run() {
    (cd "$out/work-$1" &&
        "$out/target-$1/release/benchmark" --workload "$workload" \
            --seconds "$seconds" ${seed:+--seed "$seed"} \
            >> "$results/$1.json" 2>> "$results/$1.log")
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="A B"; else order="B A"; fi
    for side in $order; do
        run "$side"
    done
    echo "bench_pairs: $workload pair $i/$pairs done ($order)" >&2
done

exec "$out/target-B/release/benchmark" --compare "$results/A.json" "$results/B.json"
