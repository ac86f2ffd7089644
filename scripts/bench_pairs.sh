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
# `--compare A.json B.json`, then the pairs verdict: for each
# end-to-end metric of BENCHMARK.json, how many pairs B won (pair i is
# the i-th run of each side in A.json and B.json; a tie counts for
# neither), the median of each side over those pairs, A's interquartile
# range (Python's `statistics.quantiles`, the quartiles the benchmark
# uses), and whether the medians sit further apart than that range in
# B's favour. It exits with the compare's status. It edits nothing
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

status=0
"$out/target-B/release/benchmark" --compare "$results/A.json" "$results/B.json" || status=$?

python3 - "$root/BENCHMARK.json" "$results/A.json" "$results/B.json" <<'PY'
import json
import statistics
import sys

bench, a_path, b_path = sys.argv[1:]


def runs(path):
    """Each run's end-to-end metric values, in file order."""
    out = []
    with open(path) as f:
        for line in f:
            try:
                value = json.loads(line)
            except ValueError:
                continue
            if isinstance(value, dict) and isinstance(value.get("metrics"), dict):
                out.append({k: m["value"] for k, m in value["metrics"].items()})
    return out


a, b = runs(a_path), runs(b_path)
n = min(len(a), len(b))
print(f"\npairs verdict: {n} pairs (pair i is run i of A and of B; a tie counts for neither)")
print(f"{'metric':<16} {'B won':>7} {'median A':>14} {'median B':>14} {'IQR A':>14}  gap > IQR A")
with open(bench) as f:
    metrics = json.load(f)["end_to_end"]
for metric in metrics:
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(x[name], y[name]) for x, y in zip(a[:n], b[:n]) if name in x and name in y]
    if not pairs:
        continue
    won = sum(1 for x, y in pairs if (y < x if lower else y > x))
    med_a = statistics.median(x for x, _ in pairs)
    med_b = statistics.median(y for _, y in pairs)
    if len(pairs) >= 2:
        q1, _, q3 = statistics.quantiles([x for x, _ in pairs], n=4)
        iqr = q3 - q1
        gap = (med_a - med_b) if lower else (med_b - med_a)
        beyond = "yes" if gap > iqr else "no"
        iqr_text = f"{iqr:14.6g}"
    else:
        beyond, iqr_text = "-", f"{'-':>14}"
    print(f"{name:<16} {won:>3}/{len(pairs):<3} {med_a:14.6g} {med_b:14.6g} {iqr_text}  {beyond}")
PY
exit "$status"
