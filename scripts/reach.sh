#!/usr/bin/env bash
# Function reachability gate: no library code that no shipped binary
# calls. The binaries are disengage, repro, parbench, every example and
# the benchmark/ package's `benchmark`, built in the dev profile, where
# nothing is inlined away.
#
# What it checks:
# - Inherent and free functions, generic or not, of every workspace
#   library (crates/*/src and src/, lib.rs files included; bin/ files
#   are the binaries themselves). A non-generic function has a text
#   symbol in its crate's rlib (the rlibs cargo's build messages name),
#   so every rlib symbol of a workspace crate must also be a text symbol
#   of some binary (`nm -C`). A generic function, or a provided method
#   of a trait, has no rlib symbol until something instantiates it, so
#   the source is scanned for their definitions outside `#[cfg(test)]`,
#   and each must match a binary symbol by module path and name.
# - Modules: every module under crates/*/src must own a function in
#   some binary.
#
# What it does not check: trait-impl methods (most are derived `Eq`,
# `Debug` or `Default`, called through the trait), generic functions
# declared inside another function's body, and modules that hold only
# types or constants (they own no function, so they go on the module
# allowlist).
#
# Exits 1 naming each unreached function or module, and each allowlist
# line that no longer names an unreached one; on success prints one line
# with how many functions and modules it checked and how many are
# allowlisted.
set -euo pipefail
cd "$(dirname "$0")/.."

# Modules no binary reaches that stay on purpose, each with its reason.
allowed_modules=(
    disengage_core::constants # holds constants only, so it owns no function
)

# Functions no binary calls that stay on purpose, each with its reason.
allowed_fns=(
    disengage_core::session::RunConfig::with_flight_path # a path setting only tests use: keeps their crash dumps out of the working directory
    disengage_dataframe::column::Column::is_empty        # a companion clippy requires (len_without_is_empty): Column::len is reached
    disengage_ocr::noise::NoiseModel::heavy              # a fixture several test crates share: the noise profile the heavy-noise golden digests pin
    disengage_par::timeline::TaskTimeline::is_empty      # a companion clippy requires (len_without_is_empty): TaskTimeline::len is reached
    disengage_stats::dist::check_p                       # the only callers are trait methods the gate leaves out: the Continuous::quantile impls
    disengage_stats::special::gamma                      # the only caller is a trait method the gate leaves out: Weibull's Continuous::mean
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# `--workspace` matters: a root-package-only build leaves out repro.
cargo build --offline --workspace --bins --examples \
    --message-format=json-render-diagnostics >"$work/build.json"
cargo build --offline --manifest-path benchmark/Cargo.toml --bins \
    --message-format=json-render-diagnostics >"$work/bench.json"
grep -ho '"executable":"[^"]*"' "$work/build.json" "$work/bench.json" |
    cut -d'"' -f4 >"$work/bins" || true
grep -o '"[^"]*\.rlib"' "$work/build.json" | tr -d '"' | sort -u >"$work/rlibs" || true
test -s "$work/rlibs" || { echo "reach: the build named no rlib" >&2; exit 1; }

# Text symbols of one object file or archive, demangled.
text_syms() {
    nm -C --defined-only "$1" 2>/dev/null | sed -n 's/^[0-9a-f]* [tT] //p'
}

# Workspace functions among symbol lines: drops trait impls (`<T as
# Trait>::f`), other crates and closure suffixes, drops a path
# segment's generic arguments (`m::Rows<T>::len` is `m::Rows::len`,
# innermost first, so nested ones go too), and writes an impl block
# placed outside its type's module (`m::<impl a::T>::f`) as `m::T::f`:
# the paths the source scan gives them.
workspace_fns() {
    grep -E '^disengage(_[a-z]+)?::' |
        sed -E -e 's/::\{\{[a-z-]+\}\}.*$//' \
            -e ':args' -e 's/([A-Za-z0-9_])<[^<>]*>/\1/' -e 't args' \
            -e 's/::<impl ([A-Za-z0-9_]+::)*([A-Za-z0-9_]+)>::/::\2::/' |
        sort -u
}

expected=(disengage repro parbench benchmark)
for ex in examples/*.rs; do expected+=("$(basename "$ex" .rs)"); done
for name in "${expected[@]}"; do
    bin=$(grep -m1 "/$name\$" "$work/bins") || { echo "reach: no binary named $name was built" >&2; exit 1; }
    text_syms "$bin" >"$work/$name.syms"
    test -s "$work/$name.syms" || { echo "reach: $bin has no text symbols" >&2; exit 1; }
done
cat "$work"/*.syms >"$work/all"
workspace_fns <"$work/all" >"$work/reached"
while read -r rlib; do text_syms "$rlib"; done <"$work/rlibs" | workspace_fns >"$work/rlib_fns"

# Source scan. Prints "<g|f> <path> <file>:<line>" for every inherent or
# free function outside #[cfg(test)] items and macro bodies, with g for
# a generic one: type parameters, an `impl Trait` argument, a generic
# impl block, or a provided trait method. Relies on rustfmt's layout:
# items open with `{` at the end of their header line and close with a
# `}` at the header's indentation.
scan() {
    awk -v base="$2" -v file="$1" '
    function indent(s) { match(s, /^ */); return RLENGTH }
    # Text of the balanced <...> or (...) starting at s[i].
    function balanced(s, i, lo, hi,    d, j, c) {
        d = 0
        for (j = i; j <= length(s); j++) {
            c = substr(s, j, 1)
            if (c == lo) d++
            else if (c == hi && --d == 0) return substr(s, i + 1, j - i - 1)
        }
        return substr(s, i + 1)
    }
    # Whether a generic parameter list has a type or const parameter.
    function has_type_param(list,    n, parts, k, p) {
        n = split(list, parts, ",")
        for (k = 1; k <= n; k++) {
            p = parts[k]; gsub(/^[ \t]+|[ \t]+$/, "", p)
            if (p != "" && p !~ /^\047/) return 1
        }
        return 0
    }
    function path(    k, p) {
        p = base
        for (k = 1; k <= depth; k++) if (name[k] != "") p = p "::" name[k]
        return p
    }
    function finish_fn(    s, fname, rest, g, params, i) {
        s = sig; sig = ""
        sub(/\{.*$/, "", s)
        match(s, /fn [A-Za-z0-9_]+/)
        fname = substr(s, RSTART + 3, RLENGTH - 3)
        rest = substr(s, RSTART + RLENGTH)
        g = gen[depth]
        if (substr(rest, 1, 1) == "<") {
            if (has_type_param(balanced(rest, 1, "<", ">"))) g = 1
        }
        i = index(rest, "(")
        params = i ? balanced(rest, i, "(", ")") : ""
        if (params ~ /(^|[^A-Za-z0-9_])impl[ \t]/) g = 1
        if (kind[depth] == "trait") {
            if (!body) return
            g = 1
        }
        printf "%s %s::%s %s:%d\n", g ? "g" : "f", path(), fname, file, sig_line
    }
    function push(k, n, g) {
        depth++; kind[depth] = k; name[depth] = n; gen[depth] = g; ind[depth] = ci
        if (k == "skip") skipping++
    }
    function open_block(h,    t, g, i, gl) {
        g = 0
        if (skipping || pend_test || h ~ /^macro_rules!/) { push("skip", "", 0); return }
        if (h ~ /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+/) {
            sub(/^(pub(\([^)]*\))? )?mod /, "", h); sub(/[^A-Za-z0-9_].*$/, "", h)
            push("mod", h, 0); return
        }
        if (h ~ /^(pub(\([^)]*\))? )?(unsafe )?trait /) {
            sub(/^(pub(\([^)]*\))? )?(unsafe )?trait /, "", h); sub(/[^A-Za-z0-9_].*$/, "", h)
            push("trait", h, 0); return
        }
        # An impl block.
        t = h; sub(/^(unsafe )?impl/, "", t)
        if (substr(t, 1, 1) == "<") {
            gl = balanced(t, 1, "<", ">")
            g = has_type_param(gl)
            t = substr(t, length(gl) + 3)
        }
        sub(/^[ \t]+/, "", t)
        if (t ~ /[ \t]for[ \t]/ || t ~ /^!/) { push("skip", "", 0); return }
        sub(/[<{ \t].*$/, "", t); sub(/^.*::/, "", t)
        push("impl", t, g)
    }
    {
        line = $0
        if (sig != "") {
            sig = sig " " line
            if (line ~ /[{;][ \t]*$/ || line ~ /\}[ \t]*$/) { body = (sig ~ /\{/); finish_fn() }
            next
        }
        if (hdr != "") {
            hdr = hdr " " line
            if (line ~ /\{[ \t]*$/) { open_block(hdr); hdr = ""; pend_test = 0 }
            next
        }
        if (line ~ /^[ \t]*(\/\/|$)/) next
        ci = indent(line); t = substr(line, ci + 1)
        if (t ~ /^\}/) {
            if (depth > 0 && ind[depth] == ci) {
                if (kind[depth] == "skip") skipping--
                depth--
            }
            next
        }
        item = depth == 0 ? 0 : ind[depth] + 4
        if (ci != item) next
        if (t ~ /^#\[cfg\(test\)\]/) { pend_test = 1; next }
        if (t ~ /^#/) next
        if (t ~ /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+ *\{/ ||
            t ~ /^(pub(\([^)]*\))? )?(unsafe )?trait [A-Za-z0-9_]+/ ||
            t ~ /^(unsafe )?impl[ <]/ || t ~ /^macro_rules!/) {
            if (t ~ /\{[ \t]*$/) {
                open_block(t)
                pend_test = 0
            } else if (t ~ /[;}][ \t]*$/) {
                # A whole item on one line (`impl Error for E {}`): it
                # holds no function, and must not swallow the next one.
                pend_test = 0
            } else {
                hdr = t
            }
            next
        }
        if (t ~ /^(pub(\([^)]*\))? )?(const )?(async )?(unsafe )?(extern "[^"]*" )?fn [A-Za-z0-9_]+/) {
            if (pend_test || skipping) { pend_test = 0; next }
            sig = t; sig_line = FNR
            if (t ~ /[{;][ \t]*$/ || t ~ /\}[ \t]*$/) { body = (sig ~ /\{/); finish_fn() }
            next
        }
        pend_test = 0
    }' "$1"
}

# Crate name of a crates/<dir> directory, or of the root package.
crate_of() {
    sed -n 's/^name = "\(.*\)"/\1/p' "$1/Cargo.toml" | head -n 1 | tr - _
}

: >"$work/defs"
while read -r file; do
    case $file in
    crates/*) dir=${file#crates/}; dir=crates/${dir%%/*} ;;
    *) dir=. ;;
    esac
    krate=$(crate_of "$dir")
    rel=${file#"$dir"/}; rel=${rel#./}; rel=${rel#src/}; rel=${rel%.rs}; rel=${rel%/mod}
    case $rel in lib) module=$krate ;; *) module="$krate::${rel//\//::}" ;; esac
    echo "$module $file" >>"$work/modules"
    scan "$file" "$module" >>"$work/defs"
done < <(find crates/*/src src -name '*.rs' ! -path '*/bin/*' | sort)

# Every function the gate checks: the rlibs' symbols plus the scanned
# generic definitions.
{ cat "$work/rlib_fns"; awk '$1 == "g" { print $2 }' "$work/defs"; } | sort -u >"$work/checked"
checked=$(wc -l <"$work/checked")
test "$checked" -gt 0 || { echo "reach: no workspace function found" >&2; exit 1; }

# An allowlist line must still be needed: it names a checked function
# that no binary calls.
unreached=0
for fn in "${allowed_fns[@]}"; do
    if ! grep -qxF -- "$fn" "$work/checked"; then
        echo "reach: allowlisted $fn is not a checked function (renamed or deleted?)"
        unreached=1
    elif grep -qxF -- "$fn" "$work/reached"; then
        echo "reach: allowlisted $fn is called by a binary; drop it from the allowlist"
        unreached=1
    fi
done
while read -r fn; do
    [[ " ${allowed_fns[*]} " == *" $fn "* ]] && continue
    where=$(awk -v f="$fn" '$2 == f { print " (" $3 ")"; exit }' "$work/defs")
    echo "reach: function $fn$where is called by no binary"
    unreached=1
done < <(comm -23 "$work/checked" "$work/reached")

modules=0
while read -r module file; do
    [[ $module == *::* && $file == crates/* && $file != */lib.rs ]] || continue
    modules=$((modules + 1))
    if [[ " ${allowed_modules[*]} " == *" $module "* ]]; then
        if grep -qF -- "$module::" "$work/all"; then
            echo "reach: allowlisted module $module has a function in a binary; drop it from the allowlist"
            unreached=1
        fi
    elif ! grep -qF -- "$module::" "$work/all"; then
        echo "reach: module $module ($file) has no function in any binary"
        unreached=1
    fi
done <"$work/modules"

if [ "$unreached" -eq 0 ]; then
    echo "reach: OK: $checked functions ($(grep -c '^g' "$work/defs") generic) and" \
        "$modules modules checked against ${#expected[@]} binaries;" \
        "${#allowed_fns[@]} functions and ${#allowed_modules[@]} module allowlisted"
fi
exit "$unreached"
