#!/usr/bin/env bash
# Offline verification: the workspace's formatting (cargo fmt
# --check; benchmark/ is its own workspace), tier-1 build + tests with
# warnings denied, rustdoc with warnings denied (broken intra-doc
# links fail), the function reachability gate (scripts/reach.sh:
# every inherent or free library function, generic or not, must be
# called by a shipped binary, and every library module must own such a
# function, or sit on the script's allowlists),
# the benchmark package's tests and smoke run (built --locked, so a
# workspace change that would rewrite benchmark/Cargo.lock fails
# instead of editing it), the full workspace test
# suite, the compiled Stage III classifier's full equivalence grid
# against the reference classifier (release), the Stage III tagging
# loop's full equivalence grid against the per-record reference loop
# (release), the diagonal-transition
# CER edit distance's full equivalence grid against the banded
# reference (release), the streamed digitizer's full-corpus
# equivalence grid against the scalar whole-page reference (release,
# ~5 s), the dictionary corrector's full equivalence grid against the
# full bucket scan (release, ~4 s), the distinct-value Weibull and
# Exponentiated-Weibull fitters' full equivalence grid against the
# reference fitters (release), the failure database's per-manufacturer
# index's full equivalence grid against the reference scans (release),
# the Stage I renderers' and Stage II parsers' full equivalence grid
# against the reference text-format layer (release),
# the repro harness's telemetry self-check
# (nonzero exit if the pipeline's counters fail to reconcile), a
# seeded chaos smoke campaign (nonzero exit on any panic, unreconciled
# fault ledger, a DEGRADED line on stdout that chaos_report.json's
# degradation ledger misses, or rate-0 divergence from the clean
# run), the parallel-determinism byte-diffs (repro output, metrics, and the
# provenance lineage log at --jobs=1 vs the default worker pool, clean
# and chaos), an artifact-cache smoke (cold run stores, warm run must
# hit every stage and byte-match; a truncated artifact must be reclaimed
# at startup and a payload-flipped one at load, both recomputing
# silently), a seeded crash-recovery campaign (kill-and-restart trials
# with I/O faults and crashed-peer litter must converge byte-identically
# and audit clean, and its report must not depend on --jobs), a
# two-process shared-cache-dir race (no locks: both processes may
# compute, they must print identical bytes and leave no tmp litter, and
# a third warm run must replay every stage), a `disengage explain`
# smoke over all three exemplar classes, Chrome-trace export
# validation, a self-profiler smoke
# (stage x phase table, JSON round-trip, folded-stack validation, and
# a warm --cache-dir profile that must replay no digitize phase),
# the observability smoke (Prometheus exposition validated by
# check-prom, canonical flight-recorder dumps byte-diffed across
# --jobs clean and under chaos, the clean run gated by the default
# health rules, a heavy chaos run required to breach them, and the
# crash campaign's postmortem dump required to doctor to its seeded
# abort stage), a sharded-cache incremental smoke (a run excluding one
# shard cold-populates the other 17; the following full run must
# replay those 17 from cache and compute exactly the one new shard),
# a cross-session eviction smoke (two cold runs at different seeds
# into one directory capped at 20 entries per stage: the second must
# evict 48, leave exactly 20 artifacts per store-cached stage, and a
# warm rerun must replay all 54 and print the same bytes),
# and the parbench peak-RSS stress ladder (memory must stay within
# 1.25x across 8x corpus growth). Performance is measured by the
# benchmark/ package (see BENCHMARK.json), not gated here.
# No network access is required at any step.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export RUSTFLAGS="-D warnings"

echo "== format: cargo fmt --all -- --check =="
# Fails naming each file whose formatting rustfmt would change.
cargo fmt --all -- --check

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== docs: rustdoc builds with warnings denied =="
# Catches intra-doc links to renamed, deleted or private items, which
# no compiler or test step checks.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== scripts: the benchmark pair runner parses =="
bash -n scripts/bench_pairs.sh

echo "== function reachability gate: every library function is called by a binary =="
# Exits nonzero naming each inherent or free library function (generic
# or not) that no binary, example or the benchmark calls, and each
# crates/*/src module that owns no such function (dev build, so no
# inlining hides one); functions and modules kept on purpose are
# allowlisted there, each with its reason. On success it prints how
# many it checked and allowlisted.
scripts/reach.sh

echo "== benchmark: builds, tests and smoke-runs against the workspace =="
# benchmark/ is a package of its own (see BENCHMARK.json), so no
# workspace command compiles it; these steps catch a core API change
# that breaks it. --locked fails a change to the workspace's crate
# graph that would rewrite benchmark/Cargo.lock, a file only a
# benchmark change may edit. The smoke run checks every workload's
# output and exits nonzero on any failed check.
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "== workspace: cargo test --workspace -q =="
cargo test --workspace -q --offline

echo "== Stage III: compiled classifier vs reference, full grid =="
# Every full-scale and chaos-recovered description and their variants,
# under every test dictionary; tier-1 runs only a sample of the grid.
cargo test --release --offline --test classifier_equivalence -- --ignored

echo "== Stage III: per-shard dedup tagging loop vs per-record reference, full grid =="
# Seeds 1-6 at full scale, scales 0.25 and 0.5, simulated OCR at light
# and heavy noise at 0.25, chaos at 0.05 and 0.3, under the default,
# sweep and poisoned banks, lineage on and off, one and two workers;
# tier-1 runs seeds 0x5EED and 42 at full scale and 0.05, OCR and chaos
# at 0.05.
cargo test --release --offline --test tag_equivalence -- --ignored

echo "== Stage I: CER edit distance vs banded reference, full grid =="
# Every filing digitized at scales 0.25 and 1, light and heavy noise,
# and chaos-perturbed documents; tier-1 runs scale 0.05 only. Most of
# the ~70 s is the O(n·d) reference on heavy noise at full scale.
cargo test --release --offline --test distance_equivalence -- --ignored

echo "== Stage I: streamed digitizer vs scalar whole-page reference, full grid =="
# Every filing at scale 0.25, corpus seeds 0x5EED and 42, under clean,
# light, heavy, erosion-only and salt-only noise: same text, confidence-
# sum bits and char count (~5 s in release); tier-1 runs scale 0.05 at
# light noise.
cargo test --release --offline --test digitize_equivalence -- --ignored

echo "== Stage I: corrector char-set prefilter vs full bucket scan, full grid =="
# Every filing digitized at scales 0.25 and 1, light and heavy noise,
# through one- and three-attempt ladders, and the chaos repair ladder
# (three attempts, so it reaches distance 2): same text, per-attempt
# hits and audited repairs (~4 s in release); tier-1 runs scale 0.05
# and random vocabularies.
cargo test --release --offline --test correct_equivalence -- --ignored

echo "== Stage IV: distinct-value fitters vs reference fitters, full grid =="
# Every analyzed manufacturer's Fig. 11 sample at seeds 1-20 (full
# scale), scales 0.25 and 0.5, a chaos-recovered database and light
# simulated OCR at scale 0.25; tier-1 runs the default seed only.
cargo test --release --offline --test fit_equivalence -- --ignored

echo "== Stage IV: per-manufacturer index vs reference scans, full grid =="
# Every query for every manufacturer at seeds 1-20 (full scale), scales
# 0.25 and 0.5 and light simulated OCR at scale 0.25; tier-1 runs the
# default seed at full scale and 0.05, a chaos-recovered database and a
# hand-built one.
cargo test --release --offline --test index_equivalence -- --ignored

echo "== Stages I-II: renderers and parsers vs reference text formats, full grid =="
# Every record, document and line at seeds 1-6 (full scale), scales
# 0.25 and 0.5 with chaos and hostile mutations, and simulated OCR at
# light and heavy noise at full scale and 0.25; tier-1 runs seeds
# 0x5EED and 42 at full scale and 0.05, OCR at 0.05.
cargo test --release --offline --test format_equivalence -- --ignored

echo "== repro telemetry self-check (counter reconciliation) =="
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --telemetry=json --prom=metrics.prom >/dev/null

echo "== observability: Prometheus exposition validates =="
cargo run --release --offline --bin disengage -- check-prom metrics.prom
rm -f metrics.prom

echo "== chaos smoke: seeded fault-injection campaign =="
cargo run --release --offline -p disengage-bench --bin repro -- \
    --chaos=0.05,7 > chaos_output.txt
test -s chaos_report.json || {
    echo "verify: chaos campaign wrote no chaos_report.json" >&2
    exit 1
}
# An artifact that prints DEGRADED (a whole block or one inline line)
# must be listed in the report's degradation ledger.
if grep -q DEGRADED chaos_output.txt &&
    grep -q '"degraded_artifacts":\[\]' chaos_report.json; then
    echo "verify: chaos_output.txt prints DEGRADED but chaos_report.json" \
        "lists no degraded artifact" >&2
    exit 1
fi
rm -f chaos_output.txt

echo "== chaos smoke: rate 0 must match the clean run =="
cargo run --release --offline -p disengage-bench --bin repro -- \
    --chaos=0 >/dev/null

echo "== parallel determinism: repro --jobs=1 vs the default pool =="
# Stage I-III are deterministic at every worker count; stdout, the
# canonical (wall-clock-zeroed) metrics, and the provenance log must
# match byte for byte.
cargo run --release --offline -p disengage-bench --bin repro -- \
    --jobs=1 --telemetry=stable-json --lineage=lineage.jsonl \
    --flight=flight.jobs1.json --health > repro_output.jobs1.txt
mv repro_metrics.json repro_metrics.jobs1.json
mv lineage.jsonl lineage.jobs1.jsonl
cargo run --release --offline -p disengage-bench --bin repro -- \
    --telemetry=stable-json --lineage=lineage.jsonl \
    --flight=flight.json --health > repro_output.txt
diff repro_output.jobs1.txt repro_output.txt
diff repro_metrics.jobs1.json repro_metrics.json
diff lineage.jobs1.jsonl lineage.jsonl
# The canonical flight dump is part of the same contract (and the
# --health above doubles as the clean-run health gate: the default
# rules must pass, or repro exits nonzero and verify stops here).
diff flight.jobs1.json flight.json
test -s lineage.jsonl || {
    echo "verify: clean run wrote an empty lineage log" >&2
    exit 1
}
rm -f repro_output.jobs1.txt repro_metrics.jobs1.json lineage.jobs1.jsonl \
    flight.jobs1.json flight.json

echo "== parallel determinism: chaos campaign at --jobs=1 vs --jobs=8 =="
cargo run --release --offline -p disengage-bench --bin repro -- \
    --chaos=0.05,7 --jobs=1 --lineage=lineage.jsonl \
    --flight=flight.jobs1.json > chaos_output.jobs1.txt
mv chaos_report.json chaos_report.jobs1.json
mv lineage.jsonl lineage.jobs1.jsonl
cargo run --release --offline -p disengage-bench --bin repro -- \
    --chaos=0.05,7 --jobs=8 --lineage=lineage.jsonl \
    --flight=flight.json > chaos_output.txt
diff chaos_output.jobs1.txt chaos_output.txt
diff chaos_report.jobs1.json chaos_report.json
diff lineage.jobs1.jsonl lineage.jsonl
diff flight.jobs1.json flight.json
rm -f chaos_output.jobs1.txt chaos_output.txt chaos_report.jobs1.json \
    lineage.jobs1.jsonl flight.jobs1.json flight.json

echo "== health gate: a heavy chaos run must breach the default rules =="
if cargo run --release --offline --bin disengage -- \
    health --scale=0.05 --chaos=0.3,7 > health_breach.txt; then
    echo "verify: health gate passed a 30%-rate chaos run" >&2
    exit 1
fi
grep -q "FAIL quarantine_rate" health_breach.txt || {
    echo "verify: health breach did not name the quarantine-rate rule" >&2
    exit 1
}
rm -f health_breach.txt

echo "== artifact cache: warm run must replay Stages I-III byte-identically =="
# Cold run populates .disengage-cache; the warm rerun must hit every
# store-cached stage and still print the same bytes (stdout, canonical
# metrics, lineage). Stage keys fold the lineage bit, so every probe
# below records lineage like the cold run did.
rm -rf .disengage-cache
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.2 --cache-dir=.disengage-cache \
    --telemetry=stable-json --lineage=lineage.jsonl > cache_cold.txt
mv repro_metrics.json cache_cold_metrics.json
mv lineage.jsonl cache_cold_lineage.jsonl
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.2 --cache-dir=.disengage-cache \
    --telemetry=stable-json --lineage=lineage.jsonl > cache_warm.txt
mv lineage.jsonl cache_warm_lineage.jsonl
diff cache_cold.txt cache_warm.txt
diff cache_cold_metrics.json repro_metrics.json
diff cache_cold_lineage.jsonl cache_warm_lineage.jsonl

echo "== artifact cache: warm hits visible in telemetry, no misses =="
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.2 --cache-dir=.disengage-cache \
    --telemetry=json --lineage=lineage.jsonl > /dev/null
grep -q '"cache.hit.corpus":18' repro_metrics.json || {
    echo "verify: warm run did not hit all 18 Stage I shard artifacts" >&2
    exit 1
}
grep -q '"cache.hit.normalize":18' repro_metrics.json || {
    echo "verify: warm run did not hit all 18 Stage II shard artifacts" >&2
    exit 1
}
if grep -q '"cache.miss' repro_metrics.json; then
    echo "verify: warm run still missed the cache" >&2
    exit 1
fi

echo "== sharded cache: a one-shard change replays every other shard =="
# Cold-populate every shard except waymo_2016 via the exclusion
# filter, then run the full corpus against the same directory: 17 of
# the 18 shards must replay from cache and only the missing shard may
# compute — the incremental-ingest contract (adding one filing year
# re-OCRs one shard, not a million miles of corpus).
rm -rf .disengage-shard-cache
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.1 --cache-dir=.disengage-shard-cache \
    --shards=-waymo_2016 --telemetry=json > /dev/null
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.1 --cache-dir=.disengage-shard-cache \
    --telemetry=json > /dev/null
grep -q '"cache.hit.corpus":17' repro_metrics.json || {
    echo "verify: incremental run did not replay the 17 unchanged shards" >&2
    exit 1
}
grep -q '"cache.miss.corpus":1' repro_metrics.json || {
    echo "verify: incremental run did not compute exactly the one new shard" >&2
    exit 1
}
grep -q '"cache.miss.normalize":1' repro_metrics.json || {
    echo "verify: incremental run recomputed more than the new shard's parse" >&2
    exit 1
}
rm -rf .disengage-shard-cache

echo "== artifact cache: a later session evicts down to the cap =="
# Two cold runs at different seeds share one directory capped at 20
# entries per stage. The second session lists each stage directory at
# its first save there and evicts from that list: 16 of the first
# run's 18 entries in each of corpus, normalize and tag (passthrough
# digitize is not store-cached), leaving exactly 20 per stage. A warm
# rerun at the second seed must replay all 54 and print the same bytes.
rm -rf .disengage-evict-cache
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.05 --seed=1 --cache-dir=.disengage-evict-cache \
    --cache-cap=20 --telemetry=json > /dev/null
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.05 --seed=2 --cache-dir=.disengage-evict-cache \
    --cache-cap=20 --telemetry=json > cache_evict_cold.txt
grep -q '"cache.evict":48[,}]' repro_metrics.json || {
    echo "verify: the second session did not evict 48 artifacts" >&2
    exit 1
}
for stage in corpus normalize tag; do
    kept=$(find ".disengage-evict-cache/$stage" -name '*.art' | wc -l)
    test "$kept" -eq 20 || {
        echo "verify: $stage holds $kept artifacts, not its cap of 20" >&2
        exit 1
    }
done
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.05 --seed=2 --cache-dir=.disengage-evict-cache \
    --cache-cap=20 --telemetry=json > cache_evict_warm.txt
grep -q '"cache.hit":54[,}]' repro_metrics.json || {
    echo "verify: the warm rerun did not replay all 54 survivors" >&2
    exit 1
}
if grep -q '"cache.miss' repro_metrics.json; then
    echo "verify: the warm rerun after evictions still missed the cache" >&2
    exit 1
fi
diff cache_evict_cold.txt cache_evict_warm.txt
rm -rf .disengage-evict-cache cache_evict_cold.txt cache_evict_warm.txt

echo "== artifact cache: corrupted artifact recomputes, never crashes =="
# Startup recovery checks every committed artifact's header against its
# file size and removes torn ones before any probe, so the truncated
# file surfaces as cache.torn.reclaimed (not cache.corrupt) and the
# stage recomputes.
artifact=$(find .disengage-cache/corpus -name '*.art' | head -n 1)
test -n "$artifact" || {
    echo "verify: cache smoke left no corpus artifact" >&2
    exit 1
}
truncate -s 7 "$artifact"
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.2 --cache-dir=.disengage-cache \
    --telemetry=json --lineage=lineage.jsonl > cache_corrupt.txt
grep -q '"cache.torn.reclaimed":1' repro_metrics.json || {
    echo "verify: torn artifact was not reclaimed at startup" >&2
    exit 1
}
diff cache_cold.txt cache_corrupt.txt

echo "== artifact cache: a flipped payload byte is caught at load =="
# A second corpus artifact keeps its header and length, so startup
# recovery leaves it; its stage's load verifies the payload checksum,
# counts cache.corrupt, removes the file (cache.torn.reclaimed) and the
# stage recomputes the same bytes.
flipped=$(find .disengage-cache/corpus -name '*.art' ! -path "$artifact" | head -n 1)
test -n "$flipped" || {
    echo "verify: cache smoke left no second corpus artifact" >&2
    exit 1
}
offset=40 # payload byte 16: past the 24-byte header
byte=$(od -An -tu1 -j "$offset" -N 1 "$flipped" | tr -d ' ')
printf "\\$(printf '%03o' $((byte ^ 1)))" |
    dd of="$flipped" bs=1 seek="$offset" conv=notrunc status=none
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.2 --cache-dir=.disengage-cache \
    --telemetry=json --lineage=lineage.jsonl > cache_corrupt.txt
grep -q '"cache.torn.reclaimed":1[,}]' repro_metrics.json || {
    echo "verify: payload-flipped artifact was not reclaimed at load" >&2
    exit 1
}
grep -q '"cache.corrupt":1[,}]' repro_metrics.json || {
    echo "verify: payload-flipped artifact was not counted corrupt" >&2
    exit 1
}
diff cache_cold.txt cache_corrupt.txt
rm -rf .disengage-cache
rm -f cache_cold.txt cache_warm.txt cache_corrupt.txt \
    cache_cold_metrics.json cache_cold_lineage.jsonl \
    cache_warm_lineage.jsonl lineage.jsonl

echo "== crash recovery: seeded kill-and-restart campaign =="
# Three trials, fixed seed: each kills the pipeline between stage
# commits (with I/O faults and crashed-peer litter on some trials),
# restarts it, and requires byte-identical convergence with a cold run
# plus a clean cache-directory audit. Exits nonzero on any failure.
# Each I/O fault is drawn from its artifact and attempt, never from the
# thread schedule, so the one-worker campaign's report is byte-identical
# to the default pool's.
rm -rf .disengage-crash-cache crash_report.json crash_report.jobs1.json flight.json
cargo run --release --offline -p disengage-bench --bin repro -- \
    --crash-campaign=3,7 --scale=0.1 --jobs=1 >/dev/null
mv crash_report.json crash_report.jobs1.json
cargo run --release --offline -p disengage-bench --bin repro -- \
    --crash-campaign=3,7 --scale=0.1 >/dev/null
diff crash_report.jobs1.json crash_report.json
rm -f crash_report.jobs1.json
test -s crash_report.json || {
    echo "verify: crash campaign wrote no crash_report.json" >&2
    exit 1
}
grep -q '"trials":3,"passed":3' crash_report.json || {
    echo "verify: crash campaign did not pass all trials" >&2
    exit 1
}
test ! -e .disengage-crash-cache || {
    echo "verify: passing crash campaign left its cache root behind" >&2
    exit 1
}

echo "== flight recorder: the last killed trial left a doctorable dump =="
# Every interrupted half-run dumps the full flight ring to flight.json
# before CoreError::Interrupted propagates; the campaign's last trial
# owns the file. The postmortem must name that trial's seeded abort
# stage and show the pipeline span still open at death.
stage=$(grep -o '"abort_after":"[a-z]*"' crash_report.json | tail -n 1 | cut -d'"' -f4)
test -n "$stage" || {
    echo "verify: crash_report.json names no abort stage" >&2
    exit 1
}
cargo run --release --offline --bin disengage -- doctor flight.json > doctor.txt
grep -q "interrupted after stage $stage" doctor.txt || {
    echo "verify: doctor postmortem does not name abort stage $stage" >&2
    exit 1
}
grep -q "open spans at dump: pipeline" doctor.txt || {
    echo "verify: doctor postmortem shows no open pipeline span" >&2
    exit 1
}
rm -f crash_report.json flight.json doctor.txt

echo "== concurrent caching: two processes sharing one cache dir =="
# Two repro runs race on one cold cache directory with no lock between
# them: both may compute any missing stage and commit it, and atomic
# commits of deterministic artifacts make that duplicated work, never
# different bytes. Both must print identical bytes, the directory must
# end with no tmp litter, and every racing commit must be a valid
# artifact: a third, warm run replays every stage and misses nothing.
rm -rf .disengage-cache
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.1 --cache-dir=.disengage-cache > shared_a.txt &
shared_pid=$!
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.1 --cache-dir=.disengage-cache > shared_b.txt
wait "$shared_pid"
diff shared_a.txt shared_b.txt
leftovers=$(find .disengage-cache -name '*.tmp' | wc -l)
test "$leftovers" -eq 0 || {
    echo "verify: shared-cache race left $leftovers tmp files" >&2
    exit 1
}
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --scale=0.1 --cache-dir=.disengage-cache --telemetry=json > /dev/null
if grep -q '"cache.miss' repro_metrics.json; then
    echo "verify: a warm run after the shared-cache race still missed the cache" >&2
    exit 1
fi
rm -rf .disengage-cache shared_a.txt shared_b.txt

echo "== provenance: explain covers corrected/quarantined/clean records =="
# The no-target form lists one exemplar subject per class; each must
# then explain to a non-empty causal chain.
cargo run --release --offline --bin disengage -- \
    explain --scale 0.05 --chaos=0.3,7 > explain_index.txt
for class in corrected quarantined clean; do
    subject=$(awk -v c="$class" '$1 == c {print $2}' explain_index.txt)
    test -n "$subject" || {
        echo "verify: explain listed no $class exemplar" >&2
        exit 1
    }
    cargo run --release --offline --bin disengage -- \
        explain "$subject" --scale 0.05 --chaos=0.3,7 | grep -q "stage" || {
        echo "verify: explain $subject produced no stage chain" >&2
        exit 1
    }
done
rm -f explain_index.txt

echo "== execution trace: Chrome trace-event export validates =="
cargo run --release --offline -p disengage-bench --bin repro -- \
    table1 --trace=trace.json >/dev/null
cargo run --release --offline --bin disengage -- check-trace trace.json

echo "== self-profiler: table, JSON round-trip, folded stacks =="
# The profile command must attribute Stage I to named OCR phases, its
# JSON must parse (the binary self-validates the folded export; the
# JSON sections are asserted in tests/cli.rs), and the folded-stack
# export must satisfy check-folded.
cargo run --release --offline --bin disengage -- \
    profile --scale=0.02 > profile_table.txt
grep -q "digitize" profile_table.txt || {
    echo "verify: profile table attributes no digitize phases" >&2
    exit 1
}
grep -q "stage_i_ocr" profile_table.txt || {
    echo "verify: profile table lists no stages" >&2
    exit 1
}
rm -f profile_table.txt
cargo run --release --offline --bin disengage -- \
    profile --scale=0.02 --profile=json > profile.json
grep -q '"phases"' profile.json || {
    echo "verify: profile JSON has no phases section" >&2
    exit 1
}
rm -f profile.json
cargo run --release --offline --bin disengage -- \
    profile --scale=0.02 --profile=folded > profile.folded
cargo run --release --offline --bin disengage -- check-folded profile.folded
rm -f profile.folded
# A warm run replays the digitize stage, so it must record no digitize
# phase: the cold run's OCR times stay out of the cached artifact.
rm -rf .disengage-profile-cache
cargo run --release --offline --bin disengage -- \
    profile --scale=0.02 --cache-dir=.disengage-profile-cache \
    --profile=folded > profile_cold.folded
cargo run --release --offline --bin disengage -- \
    profile --scale=0.02 --cache-dir=.disengage-profile-cache \
    --profile=folded > profile_warm.folded
grep -q '^digitize[; ]' profile_cold.folded || {
    echo "verify: cold profile records no digitize phase" >&2
    exit 1
}
grep -q '^stage_digitize;cache_lookup ' profile_warm.folded || {
    echo "verify: warm profile replayed no digitize artifact" >&2
    exit 1
}
if grep -q '^digitize[; ]' profile_warm.folded; then
    echo "verify: warm profile replays cold digitize phases" >&2
    exit 1
fi
rm -rf .disengage-profile-cache profile_cold.folded profile_warm.folded

echo "== scale stress: peak RSS stays flat across 8x corpus growth =="
# One child process per scale point (VmHWM is monotone within a
# process), one shard in flight; exits nonzero when a child fails or
# peak RSS at full scale exceeds 1.25x the eighth-scale point.
cargo run --release --offline -p disengage-bench --bin parbench

echo "verify: OK"
