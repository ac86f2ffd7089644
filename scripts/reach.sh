#!/usr/bin/env bash
# Module reachability gate: every library module under crates/*/src must
# own at least one function in a shipped binary (disengage, repro,
# parbench, every example, and the benchmark/ package's `benchmark`).
# Builds in the dev profile, where nothing is inlined away, collects the
# binaries' text symbols with `nm -C`, and exits 1 naming each module
# whose path (`crate::module::`) appears in none of them. lib.rs and
# bin/ files are not modules of their own and are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

# Modules no binary reaches that stay on purpose, each with its reason.
allowed=(
    disengage_nlp::learn   # tests/dictionary_learning.rs: the dictionary-learning result in EXPERIMENTS.md
    disengage_nlp::ngram   # the same test and result (learn's n-gram candidates)
    disengage_nlp::tfidf   # the same test and result (learn's term weights)
    disengage_chaos::degenerate # generates the inputs of tests/chaos_props.rs
    disengage_core::constants   # holds constants only, so it owns no function
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# `--workspace` matters: a root-package-only build leaves out repro.
{
    cargo build --offline --workspace --bins --examples --message-format=json-render-diagnostics
    cargo build --offline --manifest-path benchmark/Cargo.toml --bins \
        --message-format=json-render-diagnostics
} >"$work/build.json"
grep -o '"executable":"[^"]*"' "$work/build.json" | cut -d'"' -f4 >"$work/bins" || true

expected=(disengage repro parbench benchmark)
for ex in examples/*.rs; do expected+=("$(basename "$ex" .rs)"); done
for name in "${expected[@]}"; do
    bin=$(grep -m1 "/$name\$" "$work/bins") || { echo "reach: no binary named $name was built" >&2; exit 1; }
    nm -C --defined-only "$bin" | sed -n 's/^[0-9a-f]* [tT] //p' >"$work/$name.syms"
    test -s "$work/$name.syms" || { echo "reach: $bin has no text symbols" >&2; exit 1; }
done
cat "$work"/*.syms >"$work/all"

unreached=0
while read -r file; do
    dir=${file#crates/}; dir=${dir%%/*}
    krate=$(sed -n 's/^name = "\(.*\)"/\1/p' "crates/$dir/Cargo.toml" | head -n 1 | tr - _)
    rel=${file#crates/"$dir"/src/}; rel=${rel%.rs}; rel=${rel%/mod}
    module="$krate::${rel//\//::}"
    [[ " ${allowed[*]} " == *" $module "* ]] && continue
    if ! grep -qF -- "$module::" "$work/all"; then
        echo "reach: $module ($file) has no function in any binary"
        unreached=1
    fi
done < <(find crates/*/src -name '*.rs' ! -name lib.rs ! -path '*/bin/*' | sort)
exit "$unreached"
